import numpy as np
import pytest

from bcns.io import SnapshotError, read_snapshot, write_snapshot
from bcns.lemmas import random_field
from bcns.solvers import FlowState, PhysicalParams, step_cns
from bcns.spectral import forward_transform, lp_norm, make_grid


def _random_field(grid, seed, vector=False):
    rng = np.random.default_rng(seed)
    shape = (grid.d,) + grid.shape if vector else grid.shape
    return forward_transform(rng.standard_normal(shape), grid)


def test_round_trip_scalar_bit_exact(tmp_path):
    g = make_grid(2, 16)
    f = _random_field(g, 0)
    path = tmp_path / "a.snap"
    write_snapshot(path, f, t=0.1 + 1e-17)
    back, t = read_snapshot(path)
    assert t == 0.1 + 1e-17
    assert back.grid == g
    assert np.array_equal(back.coeffs, f.coeffs)


def test_round_trip_vector_bit_exact(tmp_path):
    g = make_grid(3, 8)
    f = _random_field(g, 1, vector=True)
    path = tmp_path / "v.snap"
    write_snapshot(path, f, t=2.25)
    back, t = read_snapshot(path)
    assert t == 2.25
    assert back.is_vector and back.ncomp == 3
    assert np.array_equal(back.coeffs, f.coeffs)

    # file bytes are reproducible
    path2 = tmp_path / "v2.snap"
    write_snapshot(path2, f, t=2.25)
    assert path.read_bytes() == path2.read_bytes()


def test_header_format(tmp_path):
    g = make_grid(2, 16)
    f = _random_field(g, 2)
    path = tmp_path / "h.snap"
    write_snapshot(path, f, t=0.5)
    first = path.read_bytes().split(b"\n", 1)[0]
    assert first == b"BCNS1 2 16 1 0.5"


def test_header_handles_numpy_scalar_time(tmp_path):
    g = make_grid(2, 16)
    f = _random_field(g, 2)
    path = tmp_path / "h.snap"
    write_snapshot(path, f, t=np.float64(0.1))
    first = path.read_bytes().split(b"\n", 1)[0]
    assert first == b"BCNS1 2 16 1 0.1"
    _, t = read_snapshot(path)
    assert t == 0.1


@pytest.mark.parametrize("mangle", [
    lambda b: b"XXXX1" + b[5:],                       # magic
    lambda b: b.replace(b"BCNS1 2 16 1", b"BCNS1 2 16 7", 1),  # bad rank
    lambda b: b[:40],                                 # truncated payload
    lambda b: b + b"\x00",                            # trailing bytes
])
def test_corrupt_snapshots_rejected(tmp_path, mangle):
    g = make_grid(2, 16)
    f = _random_field(g, 3)
    path = tmp_path / "c.snap"
    write_snapshot(path, f, t=0.0)
    (tmp_path / "bad.snap").write_bytes(mangle(path.read_bytes()))
    with pytest.raises(SnapshotError):
        read_snapshot(tmp_path / "bad.snap")


def _whole_lattice(f):
    """Oracle for the file layout: the stored half spectrum, then each column
    k_d = -j as conj(c(-k)), the leading frequencies negated by index."""
    g = f.grid
    whole = np.zeros(f.coeffs.shape[:-1] + (g.N,), dtype=complex)
    whole[..., : g.N // 2 + 1] = f.coeffs
    neg = (-np.arange(g.N)) % g.N
    for j in range(g.N // 2 + 1, g.N):
        col = f.coeffs[..., g.N - j]
        for ax in range(1, g.d):
            col = np.take(col, neg, axis=-ax)
        whole[..., j] = np.conj(col)
    return whole


@pytest.mark.parametrize("d,N", [(2, 16), (3, 8)])
def test_stepped_state_file_holds_the_whole_lattice(tmp_path, d, N):
    g = make_grid(d, N)
    rng = np.random.default_rng(4)
    a, v = random_field(g, rng), random_field(g, rng, vector=True)
    a, v = a * (0.3 / lp_norm(a, np.inf)), v * (0.5 / lp_norm(v, np.inf))
    st = step_cns(FlowState(a, v, 0.0), PhysicalParams(mu=0.7, nu=2.7, gamma=1.4),
                  2e-3)
    path = tmp_path / "s.snap"
    for f in (st.a, st.v):
        write_snapshot(path, f, st.t)
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert payload == _whole_lattice(f).astype("<c16").tobytes()
        assert len(payload) == 16 * f.ncomp * N**d
        back, t = read_snapshot(path)
        assert t == st.t and np.array_equal(back.coeffs, f.coeffs)


def _raw_snapshot(path, whole, d=2):
    rank = 1 if whole.ndim == d else whole.shape[0]
    header = f"BCNS1 {d} {whole.shape[-1]} {rank} 0.0\n".encode("ascii")
    path.write_bytes(header + np.ascontiguousarray(whole, dtype="<c16").tobytes())


def test_whole_lattice_transform_file_reads_as_its_half(tmp_path):
    # files of whole-lattice coefficients (the complex transform of real
    # samples, Hermitian to roundoff only) read as their half spectrum
    g = make_grid(2, 16)
    s = np.random.default_rng(6).standard_normal((2,) + g.shape)
    _raw_snapshot(tmp_path / "w.snap", np.fft.fftn(s, axes=(1, 2)) / g.N**2)
    back, _ = read_snapshot(tmp_path / "w.snap")
    want = forward_transform(s, g).coeffs
    assert np.max(np.abs(back.coeffs - want)) <= 1e-15


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(1, 2), (-8, 3)])  # inside and outside the 2/3 box
def test_non_finite_file_rejected(tmp_path, bad, where):
    g = make_grid(2, 16)
    whole = np.zeros(g.shape, dtype=complex)
    whole[where] = bad
    _raw_snapshot(tmp_path / "bad.snap", whole)
    with pytest.raises(SnapshotError, match="non-finite"):
        read_snapshot(tmp_path / "bad.snap")


def test_non_real_file_rejected(tmp_path):
    g = make_grid(2, 16)
    whole = np.zeros(g.shape, dtype=complex)
    whole[-8, 3] = 0.7 + 0.2j  # outside the 2/3 box: not checked
    _raw_snapshot(tmp_path / "ok.snap", whole)
    back, _ = read_snapshot(tmp_path / "ok.snap")
    assert back.coeffs[-8, 3] == 0.7 + 0.2j
    whole[1, 2] = 0.5  # no conjugate partner at -k
    _raw_snapshot(tmp_path / "bad.snap", whole)
    with pytest.raises(SnapshotError, match="not a real field"):
        read_snapshot(tmp_path / "bad.snap")
