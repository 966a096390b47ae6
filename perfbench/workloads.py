"""Seeded input generators and the four benchmark workloads.

Every generator returns a unit-norm complex array together with its
ground-truth label ("factorized" or "entangled"); the random ones draw
from the numpy Generator they are given.  The labels come from construction (an outer product of
vectors is a product state; a sum of two generic products, an i.i.d.
random tensor, a GHZ or a W state is entangled), never from entcheck.

A workload is a fixed list of items, one "pass".  The shapes and
families in a pass are the same for every seed; the seed only draws the
values.  Each pass holds 25 calls so that the sample positions of p50
(12.5 of 25) and p90 (22.5 of 25) fall in the middle of one item's
cluster of repeated latencies, not on the edge between two items.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

FACTORIZED = "factorized"
ENTANGLED = "entangled"

# --- generators -------------------------------------------------------------


def _cvec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _zero_sum_vec(rng, n):
    v = _cvec(rng, n)
    return v - v.mean()


def _unit(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.norm(a)


def product(rng, dims):
    return _unit(reduce(np.multiply.outer, [_cvec(rng, d) for d in dims])), FACTORIZED


def random_state(rng, dims):
    size = int(np.prod(dims))
    return _unit(_cvec(rng, size).reshape(dims)), ENTANGLED


def product_zero_sum_rows(rng, m, n):
    """a (x) b with sum(a) = 0: negating row 0 gives a nonzero total."""
    return _unit(np.outer(_zero_sum_vec(rng, m), _cvec(rng, n))), FACTORIZED


def product_zero_sum_both(rng, m, n):
    """a (x) b with sum(a) = sum(b) = 0: no single negation helps."""
    return _unit(np.outer(_zero_sum_vec(rng, m), _zero_sum_vec(rng, n))), FACTORIZED


def entangled_zero_sum_pair(rng, m, n):
    """Sum of two generic products whose four factors all sum to zero."""
    a = np.outer(_zero_sum_vec(rng, m), _zero_sum_vec(rng, n))
    b = np.outer(_zero_sum_vec(rng, m), _zero_sum_vec(rng, n))
    return _unit(a + b), ENTANGLED


def product_zero_total(rng, dims):
    """Multiparty product with one zero-sum factor, so the total sum is 0."""
    vectors = [_cvec(rng, d) for d in dims]
    k = int(rng.integers(len(dims)))
    vectors[k] = _zero_sum_vec(rng, dims[k])
    return _unit(reduce(np.multiply.outer, vectors)), FACTORIZED


def ghz(r):
    a = np.zeros((2,) * r, dtype=complex)
    a[(0,) * r] = a[(1,) * r] = 1.0
    return _unit(a), ENTANGLED


def w_state(r):
    a = np.zeros((2,) * r, dtype=complex)
    for k in range(r):
        idx = [0] * r
        idx[k] = 1
        a[tuple(idx)] = 1.0
    return _unit(a), ENTANGLED


# --- text writers, independent of entcheck.io --------------------------------


def _pair(z) -> str:
    return f"{float(z.real)!r} {float(z.imag)!r}"


def dense_text(a: np.ndarray) -> str:
    rows = a.reshape(-1, a.shape[-1])
    body = "\n".join("  ".join(_pair(z) for z in row) for row in rows)
    return "dims: " + " ".join(map(str, a.shape)) + "\n" + body + "\n"


def sparse_text(a: np.ndarray) -> str:
    lines = ["dims: " + " ".join(map(str, a.shape))]
    for idx in zip(*np.nonzero(a)):
        lines.append(" ".join(str(int(i)) for i in idx) + "   " + _pair(a[idx]))
    return "\n".join(lines) + "\n"


def parse_text(text: str, fmt: str) -> np.ndarray:
    """Reader for both formats, used to check files entcheck writes."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines[0].startswith("dims:"):
        raise ValueError("missing dims header")
    dims = tuple(int(tok) for tok in lines[0][5:].split())
    if fmt == "dense":
        values = np.array(" ".join(lines[1:]).split(), dtype=float)
        return (values[0::2] + 1j * values[1::2]).reshape(dims)
    a = np.zeros(dims, dtype=complex)
    r = len(dims)
    for ln in lines[1:]:
        tok = ln.split()
        a[tuple(int(t) for t in tok[:r])] = complex(float(tok[r]), float(tok[r + 1]))
    return a


# --- workload items ---------------------------------------------------------


@dataclass
class Item:
    """One call of a pass.

    kind "analyze": `array` goes to entcheck.analyze as a CoeffTensor.
    kind "read": `array` is written to `path` in format `fmt` during set-up
    and the call is `entcheck analyze --input path --format fmt`.
    kind "gen": the call is `entcheck gen` writing `path`; `argv` holds
    the gen arguments and `array` is filled in at set-up with the tensor
    the written file must hold.
    """

    name: str
    kind: str
    label: Optional[str]
    array: Optional[np.ndarray] = None
    fmt: str = "dense"
    path: Optional[str] = None
    argv: list = field(default_factory=list)
    tensor: object = None


def _rng(seed, k):
    return np.random.default_rng([seed, k])


def _shape(dims):
    return "x".join(map(str, dims)) if len(dims) == 2 else f"{dims[0]}^{len(dims)}"


def bipartite_generic(seed, workdir=None):
    """13 products and 12 random matrices on sizes 64..256."""
    items = []
    prod_sizes = np.linspace(64, 256, 13).astype(int)
    rand_sizes = np.linspace(64, 256, 12).astype(int)
    for k, n in enumerate(prod_sizes):
        a, label = product(_rng(seed, k), (n, n))
        items.append(Item(f"product-{n}x{n}", "analyze", label, a))
    for k, n in enumerate(rand_sizes):
        a, label = random_state(_rng(seed, 100 + k), (n, n))
        items.append(Item(f"random-{n}x{n}", "analyze", label, a))
    return items


def bipartite_degenerate(seed, workdir=None):
    """Zero-total-sum matrices on sizes 32..256, in three families."""
    families = (
        ("zs-row", product_zero_sum_rows, (32, 64, 96, 128, 160, 192, 224, 256, 256)),
        ("zs-both", product_zero_sum_both, (32, 48, 64, 80, 96, 128, 160, 192)),
        ("zs-pair", entangled_zero_sum_pair, (32, 48, 64, 80, 96, 128, 160, 224)),
    )
    items = []
    for f, (tag, gen, sizes) in enumerate(families):
        for k, n in enumerate(sizes):
            a, label = gen(_rng(seed, 100 * f + k), n, n)
            items.append(Item(f"{tag}-{n}x{n}", "analyze", label, a))
    return items


def multiparty(seed, workdir=None):
    """Qubit tensors 2^10..2^18, 8^5, 16^4, 32^3, zero-total-sum products."""
    specs = []
    for r in (10, 12, 14, 16, 17, 18):
        specs.append(("product", product, (2,) * r))
        specs.append(("random", random_state, (2,) * r))
    for dims in ((8,) * 5, (16,) * 4, (32,) * 3):
        specs.append(("product", product, dims))
        specs.append(("random", random_state, dims))
    for r in (8, 9, 10, 11, 11, 11, 11):
        specs.append(("product-zero-total", product_zero_total, (2,) * r))
    items = []
    for k, (tag, gen, dims) in enumerate(specs):
        a, label = gen(_rng(seed, k), dims)
        items.append(Item(f"{tag}-{_shape(dims)}", "analyze", label, a))
    return items


def cli_files(seed, workdir):
    """Interleaved `analyze --input` reads and `gen --output` writes."""
    reads = [
        ("dense", product, (64, 64)),
        ("dense", random_state, (64, 64)),
        ("dense", product, (128, 128)),
        ("dense", product, (256, 256)),
        ("dense", product, (2,) * 10),
        ("dense", random_state, (2,) * 12),
        ("dense", product, (2,) * 14),
        ("sparse", product, (64, 64)),
        ("sparse", random_state, (128, 128)),
        ("sparse", product, (2,) * 12),
        ("sparse", random_state, (2,) * 14),
        ("sparse", ghz, 10),
        ("sparse", w_state, 14),
        ("sparse", ghz, 18),
        ("sparse", w_state, 18),
    ]
    gens = [
        ("dense", "--product", (64, 64)),
        ("dense", "--random", (128, 128)),
        ("dense", "--product", (256, 256)),
        ("dense", "--random", (2,) * 12),
        ("dense", "--product", (2,) * 14),
        ("sparse", "--random", (64, 64)),
        ("sparse", "--product", (128, 128)),
        ("sparse", "--product", (2,) * 10),
        ("sparse", "--random", (2,) * 12),
        ("sparse", "--product", (2,) * 14),
    ]
    read_items = []
    for k, (fmt, gen, dims) in enumerate(reads):
        if gen in (ghz, w_state):
            a, label = gen(dims)
        else:
            a, label = gen(_rng(seed, k), dims)
        name = f"read-{fmt}-{gen.__name__}-{_shape(a.shape)}"
        path = os.path.join(workdir, f"in{k}.{fmt}.txt")
        read_items.append(Item(name, "read", label, a, fmt=fmt, path=path))
    gen_items = []
    for k, (fmt, flag, dims) in enumerate(gens):
        gseed = int(_rng(seed, 1000 + k).integers(2**31))
        dims_arg = ",".join(map(str, dims))
        path = os.path.join(workdir, f"out{k}.{fmt}.txt")
        argv = ["gen", flag, "--dims", dims_arg, "--seed", str(gseed),
                "--out-format", fmt, "--output", path]
        gen_items.append(Item(f"gen-{fmt}{flag[1:]}-{_shape(dims)}", "gen", None, fmt=fmt,
                              path=path, argv=argv))
    # two writes in every five calls, spread through the pass
    reads, writes = iter(read_items), iter(gen_items)
    return [next(writes) if k % 5 in (1, 3) else next(reads)
            for k in range(len(read_items) + len(gen_items))]


BUILDERS = {
    "bipartite-generic": bipartite_generic,
    "bipartite-degenerate": bipartite_degenerate,
    "multiparty": multiparty,
    "cli-files": cli_files,
}
WORKLOADS = tuple(BUILDERS)
