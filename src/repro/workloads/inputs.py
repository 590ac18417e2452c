"""Deterministic input-data generators shared by the workload modules.

All generators take an explicit seed and return Python lists of ints; the
distributions imitate the *statistical character* of the SPEC inputs the
paper lists in Tables 2 and 4 (text vs. program vs. random vs. graphic
data, value-magnitude mixes, board layouts, ...).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

#: Extra seed entropy mixed into every :func:`rng` call, or ``None``.
#: Set via :func:`variant_seed`; lets the sweep engine derive whole
#: *families* of statistically-alike inputs from the existing factories
#: without touching any workload module.
_VARIANT: list[tuple[int, ...] | None] = [None]


@contextmanager
def variant_seed(*extra: int):
    """Derive a seeded variant stream for every generator in the block.

    Inside the context, ``rng(seed)`` seeds from ``(seed, *extra)``
    instead of ``seed``: same distribution, different draw.  Used by
    :mod:`repro.sweep.population` to grow an input population from one
    named input; nesting restores the previous variant on exit.
    """
    previous = _VARIANT[0]
    _VARIANT[0] = tuple(int(value) for value in extra)
    try:
        yield
    finally:
        _VARIANT[0] = previous


def rng(seed: int) -> np.random.Generator:
    """The suite-wide RNG constructor (one seed, one stream).

    Under :func:`variant_seed`, the variant entropy is mixed in so each
    population member draws an independent stream of the same shape.
    """
    if _VARIANT[0] is None:
        return np.random.default_rng(seed)
    return np.random.default_rng((seed, *_VARIANT[0]))


def scaled(base: int, scale: float, minimum: int = 16) -> int:
    """Scale a base size, keeping a sane minimum for tiny test runs."""
    return max(minimum, int(base * scale))


# ----------------------------------------------------------------------
# Byte-stream generators (compressor inputs)
# ----------------------------------------------------------------------


def text_like(n: int, seed: int, alphabet: int = 26, word_len: float = 5.0) -> list[int]:
    """English-text-like bytes: skewed letter frequencies, word boundaries."""
    generator = rng(seed)
    # Zipf-ish letter distribution over `alphabet` symbols, offset to 97.
    ranks = np.arange(1, alphabet + 1, dtype=np.float64)
    probs = (1.0 / ranks) / np.sum(1.0 / ranks)
    letters = generator.choice(alphabet, size=n, p=probs) + 97
    # Sprinkle spaces with geometric word lengths.
    spaces = generator.random(n) < (1.0 / word_len)
    data = np.where(spaces, 32, letters)
    return data.astype(int).tolist()


def repetitive(n: int, seed: int, period: int = 64, noise: float = 0.02) -> list[int]:
    """Log-file-like bytes: a repeating template with light noise."""
    generator = rng(seed)
    template = generator.integers(32, 127, size=period)
    data = np.tile(template, n // period + 1)[:n]
    flips = generator.random(n) < noise
    data = np.where(flips, generator.integers(32, 127, size=n), data)
    return data.astype(int).tolist()


def random_bytes(n: int, seed: int) -> list[int]:
    """Incompressible uniform bytes (SPEC gzip's input.random)."""
    return rng(seed).integers(0, 256, size=n).astype(int).tolist()


def program_like(n: int, seed: int) -> list[int]:
    """Source-code-like bytes: heavy punctuation, indentation runs."""
    generator = rng(seed)
    keywords = [105, 102, 40, 41, 123, 125, 59, 61, 43, 42, 32, 32, 10, 9]  # if(){};=+* space nl tab
    population = np.array(keywords + list(range(97, 123)))
    weights = np.array([6.0] * len(keywords) + [1.0] * 26)
    weights /= weights.sum()
    return generator.choice(population, size=n, p=weights).astype(int).tolist()


def graphic_like(n: int, seed: int) -> list[int]:
    """Image-like bytes: smooth gradients with occasional edges."""
    generator = rng(seed)
    steps = generator.integers(-3, 4, size=n)
    edges = generator.random(n) < 0.01
    steps = np.where(edges, generator.integers(-100, 101, size=n), steps)
    return (np.cumsum(steps) % 256).astype(int).tolist()


def video_like(n: int, seed: int) -> list[int]:
    """Already-compressed-media-like bytes: near-random with header runs."""
    generator = rng(seed)
    data = generator.integers(0, 256, size=n)
    # Periodic low-entropy "headers".
    for start in range(0, n, 4096):
        stop = min(start + 64, n)
        data[start:stop] = 0
    return data.astype(int).tolist()


# ----------------------------------------------------------------------
# Value-stream generators (gap-style math inputs)
# ----------------------------------------------------------------------


def magnitude_mix(
    n: int,
    seed: int,
    big_fraction: float,
    big_shift: int = 31,
    segment: int = 0,
    contrast: float = 0.0,
) -> list[int]:
    """Values that are "small ints" or "bignums" in a tagged representation.

    ``big_fraction`` of values exceed ``2**30`` — the property the paper's
    gap example (Figure 6) says separates its train and ref inputs.

    With ``segment > 0`` and ``contrast > 0`` the big values cluster: the
    stream is cut into segments whose per-segment big-probability is either
    ``lo = bf*(1-contrast)`` or ``hi = bf + contrast*(1-bf)``, mixed so the
    overall fraction stays ``big_fraction``.  Real gap inputs have exactly
    this phase structure (a computation switches between small-integer and
    bignum regimes), which is what gives the type-check branch its
    time-varying prediction accuracy (paper Figure 8).
    """
    generator = rng(seed)
    small = generator.integers(1, 1 << 20, size=n)
    big = generator.integers(1 << big_shift, 1 << (big_shift + 3), size=n)
    if segment > 0 and contrast > 0.0:
        lo = big_fraction * (1.0 - contrast)
        hi = big_fraction + contrast * (1.0 - big_fraction)
        weight = (big_fraction - lo) / (hi - lo) if hi > lo else 0.0
        num_segments = n // segment + 1
        seg_probs = np.where(generator.random(num_segments) < weight, hi, lo)
        probs = np.repeat(seg_probs, segment)[:n]
    else:
        probs = np.full(n, big_fraction)
    choose_big = generator.random(n) < probs
    return np.where(choose_big, big, small).astype(int).tolist()


# ----------------------------------------------------------------------
# Structured generators (graphs, boards)
# ----------------------------------------------------------------------


def random_graph_edges(num_nodes: int, num_edges: int, seed: int, max_weight: int = 100) -> list[int]:
    """Flat [u, v, w]*E edge list of a random digraph (no self loops)."""
    generator = rng(seed)
    flat: list[int] = []
    for _ in range(num_edges):
        u = int(generator.integers(0, num_nodes))
        v = int(generator.integers(0, num_nodes))
        if v == u:
            v = (v + 1) % num_nodes
        flat.extend((u, v, int(generator.integers(1, max_weight + 1))))
    return flat


def board_layout(cells: int, pieces: int, seed: int) -> list[int]:
    """A board occupancy vector with `pieces` of alternating ownership."""
    generator = rng(seed)
    board = np.zeros(cells, dtype=int)
    positions = generator.choice(cells, size=min(pieces, cells), replace=False)
    for index, pos in enumerate(positions):
        board[pos] = 1 if index % 2 == 0 else 2
    return board.astype(int).tolist()
