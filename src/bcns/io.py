"""Snapshot file format: expand on write, check on read.

Layout: one ASCII header line ``BCNS1 d N rank t`` (``rank`` is the number
of components: 1 for a scalar, d for a vector; ``t`` is the snapshot time,
written with ``repr`` so it round-trips bit-exactly), followed by raw
little-endian 64-bit float pairs (re, im), one pair per mode of the whole
lattice, in row-major (C) order over the FFT-ordered frequency axes with
components outermost.

A field lives in memory as its half spectrum (see :mod:`bcns.spectral`).
``write_snapshot`` expands it to the whole lattice by ``c(-k) =
conj(c(k))``; ``read_snapshot`` refuses non-finite coefficients, checks
that symmetry inside the 2/3 box, relative to the largest coefficient there,
and keeps the half spectrum.
Round-trips are bit-exact.
"""

from __future__ import annotations

import functools

import numpy as np

from .spectral import SpectralField, SpectralError, _negated, make_grid

MAGIC = "BCNS1"


class SnapshotError(SpectralError):
    """Malformed snapshot file."""


def write_snapshot(path, f: SpectralField, t: float) -> None:
    g = f.grid
    rank = f.ncomp
    header = f"{MAGIC} {g.d} {g.N} {rank} {float(t)!r}\n"
    h = g.N // 2 + 1
    whole = np.zeros(f.coeffs.shape[:-1] + (g.N,), dtype="<c16")
    whole[..., :h] = f.coeffs
    whole[..., h:] = np.conj(_negated(whole, tuple(range(-g.d, 0)))[..., h:])
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(whole.tobytes())


def read_snapshot(path) -> tuple[SpectralField, float]:
    """Read a snapshot; returns the field and its time stamp."""
    with open(path, "rb") as fh:
        header = fh.readline()
        try:
            text = header.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"{path}: undecodable header") from exc
        parts = text.split()
        if len(parts) != 5 or parts[0] != MAGIC:
            raise SnapshotError(f"{path}: bad header {text!r}")
        try:
            d = int(parts[1])
            N = int(parts[2])
            rank = int(parts[3])
            t = float(parts[4])
        except ValueError as exc:
            raise SnapshotError(f"{path}: unparsable header fields {text!r}") from exc
        grid = make_grid(d, N)
        if rank not in (1, d):
            raise SnapshotError(f"{path}: rank {rank} not in (1, {d})")
        count = rank * N**d
        raw = fh.read(count * 16)
        if len(raw) != count * 16:
            raise SnapshotError(f"{path}: truncated payload "
                                f"({len(raw)} of {count * 16} bytes)")
        extra = fh.read(1)
        if extra:
            raise SnapshotError(f"{path}: trailing bytes after payload")
    shape = grid.shape if rank == 1 else (rank,) + grid.shape
    whole = np.frombuffer(raw, dtype="<c16").astype(np.complex128).reshape(shape)
    if not np.all(np.isfinite(whole)):  # NaN would pass the symmetry check
        raise SnapshotError(f"{path}: non-finite coefficients in the payload")
    inside = np.meshgrid(*[np.abs(np.fft.fftfreq(N, 1.0 / N)) < N / 3.0] * d,
                         indexing="ij", sparse=True)
    box = whole * functools.reduce(np.logical_and, inside)
    defect = float(np.max(np.abs(_negated(box, tuple(range(-d, 0))) - np.conj(box))))
    scale = float(np.max(np.abs(box)))
    if defect > 1e-12 * scale:
        raise SnapshotError(
            f"{path}: not a real field: c(-k) - conj(c(k)) reaches {defect:.3e} "
            f"inside the 2/3 box (max |c| = {scale:.3e})")
    return SpectralField(grid, whole[..., :N // 2 + 1].copy()), t
