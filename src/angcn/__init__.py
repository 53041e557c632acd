"""Population-graph node classification with aggregator-normalized graph
convolutions, skip connections, and identity mapping."""

__version__ = "0.1.0"
