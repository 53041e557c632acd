"""Dense adjacency matrices for the tests (a population graph is its N x N
array), a triple-loop product oracle, the memory peak of one call, and a set
BLAS thread count."""

import contextlib
import tracemalloc

import numpy as np


def adjacency(n, edges=()):
    """The n x n symmetric matrix with weight w at (i, j) and (j, i) for each
    edge (i, j, w), and 0 elsewhere."""
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i, j] = a[j, i] = w
    return a


def random_adjacency(n, p, seed, low, high):
    """Each pair i < j, in row-major order, is an edge with probability p and a
    weight uniform in [low, high), both drawn from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return adjacency(n, [(i, j, rng.uniform(low, high))
                         for i in range(n) for j in range(i + 1, n) if rng.uniform() < p])


def wide_random_graph(n, p, seed):
    """A random_adjacency with weights in [0.1, 2.0): the graphs the
    normalized operator and the training operator are checked on."""
    return random_adjacency(n, p, seed, 0.1, 2.0)


def naive_matmul(a, b):
    """Independent triple-loop product used as the oracle."""
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def adjacency_file(directory, rows):
    """directory/adjacency.csv holding the given (i, j, w) rows after its header."""
    path = directory / "adjacency.csv"
    path.write_text("i,j,weight\n" + "".join(f"{i},{j},{w}\n" for i, j, w in rows))
    return path


def edge_list(a):
    """The (i, j, w) edges of an adjacency matrix: its nonzero entries i < j,
    in row-major order."""
    i, j = np.nonzero(np.triu(a, k=1))
    return list(zip(i.tolist(), j.tolist(), a[i, j].tolist()))


def peak_bytes(fn, *args):
    """(the peak of the memory tracemalloc traced while fn(*args) ran, its result)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def blas_threads(threads):
    """OpenBLAS held at `threads` threads inside the block, where numpy's BLAS
    exports the thread-count functions (else left as it is)."""
    from angcn.training import _blas_thread_api

    api = _blas_thread_api()
    before = api[0]() if api else None
    if api:
        api[1](threads)
    try:
        yield
    finally:
        if api:
            api[1](before)
