"""Statevector engine tests against kron-product matrix oracles."""

import types

import numpy as np
import pytest

from gaugeqec.gauss_code import classical_code, concat_repetition
from gaugeqec.hamiltonian import Couplings, build_pauli
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import PauliString, PauliSum, parse
from gaugeqec import statevector as sv

from oracles import (
    dense_pauli,
    dense_projector,
    dense_sum,
    expm_hermitian,
    gram_spectral_norm,
    random_hermitian_pauli,
    random_pauli,
    random_state,
    random_unitary,
)


def state_from(vec) -> sv.Statevector:
    n = int(np.log2(len(vec)))
    return sv.Statevector(n, vec)


def test_default_is_all_zero_state():
    s = sv.Statevector(3)
    assert s.amps[0] == 1.0
    assert s.norm() == pytest.approx(1.0)


def test_basis_from_bit_string():
    s = sv.Statevector.basis(3, "010")
    assert s.amps[2] == 1.0
    with pytest.raises(ValueError):
        sv.Statevector.basis(3, "01")


def test_qubit_zero_is_most_significant_bit():
    s = sv.Statevector(3)
    sv.apply_pauli(s, PauliString.from_ops(3, {0: "X"}))
    assert s.amps[0b100] == 1.0
    sv.apply_pauli(s, PauliString.from_ops(3, {2: "X"}))
    assert s.amps[0b101] == 1.0


def test_x_and_z_actions():
    s = sv.Statevector(1)
    sv.apply_pauli(s, parse("X"))
    assert np.allclose(s.amps, [0, 1])
    plus = state_from(np.array([1, 1]) / np.sqrt(2))
    sv.apply_pauli(plus, parse("Z"))
    assert np.allclose(plus.amps, np.array([1, -1]) / np.sqrt(2))


def test_apply_pauli_matches_oracle():
    rng = np.random.default_rng(101)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        p = random_pauli(rng, n)
        vec = random_state(rng, n)
        out = sv.apply_pauli(state_from(vec), p)
        assert np.allclose(out.amps, dense_pauli(p) @ vec, atol=1e-12)


def test_apply_pauli_sum_matches_oracle():
    rng = np.random.default_rng(103)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        h = PauliSum(n, allow_complex=True)
        for _ in range(4):
            h.add_term(complex(rng.normal(), rng.normal()), random_pauli(rng, n))
        vec = random_state(rng, n)
        out = sv.apply_pauli_sum(state_from(vec), h)
        assert np.allclose(out.amps, dense_sum(h) @ vec, atol=1e-12)


class TestExpPauli:
    def test_matches_eigh_oracle(self):
        rng = np.random.default_rng(107)
        for _ in range(60):
            n = int(rng.integers(1, 6))
            p = random_hermitian_pauli(rng, n)
            t = float(rng.normal())
            vec = random_state(rng, n)
            out = sv.apply_exp_pauli(state_from(vec), t, p)
            expected = expm_hermitian(dense_pauli(p), 1j * t) @ vec
            assert np.allclose(out.amps, expected, atol=1e-12)

    def test_t_zero_is_identity(self):
        vec = random_state(np.random.default_rng(109), 3)
        out = sv.apply_exp_pauli(state_from(vec), 0.0, parse("XYZ"))
        assert np.allclose(out.amps, vec)

    def test_z_rotation_phase_on_zero_ket(self):
        s = sv.Statevector(1)
        sv.apply_exp_pauli(s, 0.3, parse("Z"))
        assert np.allclose(s.amps, [np.exp(0.3j), 0])

    def test_round_trip(self):
        vec = random_state(np.random.default_rng(113), 4)
        s = state_from(vec)
        sv.apply_exp_pauli(s, np.pi / 2, parse("XXYZ"))
        sv.apply_exp_pauli(s, -np.pi / 2, parse("XXYZ"))
        assert np.allclose(s.amps, vec, atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            sv.apply_exp_pauli(sv.Statevector(1), 0.1, parse("iX"))


def test_norm_drift_over_thousand_ops():
    rng = np.random.default_rng(127)
    s = state_from(random_state(rng, 5))
    for _ in range(1000):
        if rng.random() < 0.5:
            sv.apply_pauli(s, random_pauli(rng, 5))
        else:
            sv.apply_exp_pauli(s, float(rng.normal()), random_hermitian_pauli(rng, 5))
    assert abs(s.norm() - 1.0) < 1e-10


class TestMeasure:
    def test_z_on_zero_is_deterministic_and_non_destructive(self):
        rng = np.random.default_rng(131)
        s = sv.Statevector(1)
        outcome, s, prob = sv.measure_pauli(s, parse("Z"), rng)
        assert outcome == 1
        assert prob == pytest.approx(1.0)
        assert np.allclose(s.amps, [1, 0])

    def test_x_on_zero_is_unbiased(self):
        rng = np.random.default_rng(137)
        outcomes = []
        for _ in range(10000):
            s = sv.Statevector(1)
            outcome, _, prob = sv.measure_pauli(s, parse("X"), rng)
            assert prob == pytest.approx(0.5, abs=1e-10)
            outcomes.append(outcome)
        freq = outcomes.count(1) / len(outcomes)
        assert abs(freq - 0.5) < 0.02

    def test_collapse_is_repeatable(self):
        rng = np.random.default_rng(139)
        s = sv.Statevector(2)
        first, s, _ = sv.measure_pauli(s, parse("XI"), rng)
        for _ in range(5):
            again, s, prob = sv.measure_pauli(s, parse("XI"), rng)
            assert again == first
            assert prob == pytest.approx(1.0)

    def test_seeded_rng_reproducible(self):
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(149)
            s = state_from(random_state(np.random.default_rng(7), 3))
            runs.append([sv.measure_pauli(s, parse("XZX"), rng)[0] for _ in range(20)])
        assert runs[0] == runs[1]


def test_inject_error_is_single_qubit_pauli():
    vec = random_state(np.random.default_rng(151), 3)
    out = sv.inject_error(state_from(vec), 1, "Y")
    expected = sv.apply_pauli(state_from(vec), PauliString.from_ops(3, {1: "Y"}))
    assert np.allclose(out.amps, expected.amps)
    with pytest.raises(ValueError):
        sv.inject_error(state_from(vec), 0, "I")


def test_cnot_matches_kron_oracle():
    rng = np.random.default_rng(211)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    swap_pair = np.kron(np.eye(2), cnot[[0, 2, 1, 3]][:, [0, 2, 1, 3]])  # control below target
    vec = random_state(rng, 2)
    out = sv.apply_cnot(state_from(vec), 0, 1)
    assert np.allclose(out.amps, cnot @ vec)
    out = sv.apply_cnot(state_from(vec), 1, 0)
    assert np.allclose(out.amps, cnot[[0, 2, 1, 3]][:, [0, 2, 1, 3]] @ vec)
    vec3 = random_state(rng, 3)
    out = sv.apply_cnot(state_from(vec3), 2, 1)
    assert np.allclose(out.amps, swap_pair @ vec3)
    with pytest.raises(ValueError):
        sv.apply_cnot(state_from(vec), 1, 1)


def test_hadamard_matches_kron_oracle():
    rng = np.random.default_rng(223)
    h2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    vec = random_state(rng, 3)
    for q, mat in enumerate([
        np.kron(h2, np.eye(4)),
        np.kron(np.eye(2), np.kron(h2, np.eye(2))),
        np.kron(np.eye(4), h2),
    ]):
        out = sv.apply_hadamard(state_from(vec), q)
        assert np.allclose(out.amps, mat @ vec)


def test_pauli_matrix_matches_oracle():
    rng = np.random.default_rng(157)
    for _ in range(80):
        p = random_pauli(rng, int(rng.integers(1, 6)))
        assert np.allclose(sv.pauli_matrix(p), dense_pauli(p))


def test_pauli_sum_matrix_matches_oracle():
    rng = np.random.default_rng(163)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h = PauliSum(n, allow_complex=True)
        for _ in range(5):
            h.add_term(complex(rng.normal(), rng.normal()), random_pauli(rng, n))
        assert np.allclose(sv.pauli_sum_matrix(h), dense_sum(h))


class TestSpectralNorm:
    @pytest.mark.parametrize("size", [1, 2, 7, 64, 256])
    def test_matches_the_svd_norm(self, size):
        rng = np.random.default_rng(size)
        a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sv.spectral_norm(a), gram_spectral_norm(a), rtol=1e-12, atol=1e-15)

    def test_rank_one_matrix(self):
        rng = np.random.default_rng(9)
        u = rng.normal(size=16) + 1j * rng.normal(size=16)
        v = rng.normal(size=16) + 1j * rng.normal(size=16)
        a = np.outer(u, v.conj())
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)

    def test_zero_matrix_gives_exact_zero(self):
        assert sv.spectral_norm(np.zeros((8, 8), dtype=complex)) == 0.0

    @pytest.mark.parametrize("shape", [(40, 12), (12, 40)])
    def test_rectangular_matrix(self, shape):
        rng = np.random.default_rng(sum(shape))
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)

    @staticmethod
    def with_singular_values(rng, s) -> np.ndarray:
        dim = len(s)
        return (random_unitary(rng, dim) * s) @ random_unitary(rng, dim).conj().T

    def test_exactly_repeated_top_singular_value(self):
        rng = np.random.default_rng(31)
        s = np.sort(rng.uniform(0.0, 1.5, size=48))[::-1]
        s[1] = s[0]
        a = self.with_singular_values(rng, s)
        np.testing.assert_allclose(sv.spectral_norm(a), s[0], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("width", [1e-14, 1e-10, 1e-6])
    def test_tight_cluster_at_the_top(self, width):
        rng = np.random.default_rng(37)
        s = np.sort(rng.uniform(0.0, 1.8, size=96))[::-1]
        s[:4] = 2.0 - width * np.arange(4)
        a = self.with_singular_values(rng, s)
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sv.spectral_norm(a), gram_spectral_norm(a), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_top_found_only_in_the_whole_krylov_space(self, seed):
        # 14 singular values within 1e-6 of 1 and two isolated small ones:
        # the small ones converge first and the top only near k = n, where
        # a basis that lost orthogonality no longer spans the whole space
        rng = np.random.default_rng(seed)
        s = 1 + 1e-6 * np.sort(rng.uniform(size=16))[::-1]
        s[-2:] = [1e-3, 0.0]
        a = self.with_singular_values(rng, s)
        np.testing.assert_allclose(sv.spectral_norm(a), np.linalg.norm(a, 2), rtol=1e-12, atol=1e-15)

    def test_repeat_calls_are_bitwise_equal(self):
        rng = np.random.default_rng(41)
        a = rng.normal(size=(128, 128)) + 1j * rng.normal(size=(128, 128))
        first, second = sv.spectral_norm(a), sv.spectral_norm(a.copy())
        assert first.hex() == second.hex()


class TestExactEvolve:
    def test_t_zero_is_identity(self):
        h = PauliSum(2, [(0.5, parse("XX")), (0.25, parse("ZI"))])
        assert np.allclose(sv.exact_evolve(h, 0.0), np.eye(4))

    def test_single_z_term(self):
        h = PauliSum(1, [(1.0, parse("Z"))])
        u = sv.exact_evolve(h, 0.7)
        assert np.allclose(u, np.diag([np.exp(-0.7j), np.exp(0.7j)]))

    @pytest.mark.parametrize("labels, real", [(("XX", "ZI", "IZ"), True), (("XY", "ZI", "YZ"), False)])
    def test_real_and_complex_hamiltonians_match_the_oracle(self, labels, real):
        h = PauliSum(2, [(c, parse(label)) for c, label in zip((0.8, -0.45, 0.3), labels)])
        # the real branch diagonalizes in real arithmetic, the other in complex
        assert (not sv.pauli_sum_matrix(h).imag.any()) == real
        for t in (0.35, -1.2):
            assert np.abs(sv.exact_evolve(h, t) - expm_hermitian(dense_sum(h), -1j * t)).max() < 1e-12

    def test_matches_eigh_oracle_and_unitary(self):
        rng = np.random.default_rng(167)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            h = PauliSum(n)
            for _ in range(4):
                h.add_term(float(rng.normal()), random_hermitian_pauli(rng, n).letter_form())
            t = float(rng.normal())
            u = sv.exact_evolve(h, t)
            assert np.allclose(u @ u.conj().T, np.eye(1 << n), atol=1e-10)
            assert np.allclose(u, expm_hermitian(dense_sum(h), -1j * t), atol=1e-10)


class TestCodespace:
    # stabilizers of the 3-qubit repetition code
    gens = [parse("ZZI"), parse("IZZ")]

    def test_projector_properties(self):
        code = types.SimpleNamespace(n_physical=3, generators=self.gens)
        proj = sv.codespace_projector(code)
        assert np.allclose(proj, proj.conj().T)
        assert np.allclose(proj @ proj, proj)
        assert np.linalg.matrix_rank(proj) == 2
        for g in self.gens:
            gm = dense_pauli(g)
            assert np.allclose(gm @ proj, proj @ gm)
            # codewords are +1 eigenvectors
            assert np.allclose(gm @ proj, proj)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projector_matches_the_dense_oracle(self, n):
        rng = np.random.default_rng(410 + n)
        gens = []
        for _ in range(12):
            g = random_hermitian_pauli(rng, n)
            if not g.is_identity() and all(g.commutes(h) for h in gens):
                gens.append(g)
        code = types.SimpleNamespace(n_physical=n, generators=gens)
        assert np.abs(sv.codespace_projector(code) - dense_projector(n, gens)).max() < 1e-13

    def test_gauss_code_projector_matches_the_dense_oracle(self):
        code = classical_code(Lattice((3,)))
        want = dense_projector(code.n_physical, code.generators)
        assert np.abs(sv.codespace_projector(code) - want).max() < 1e-13

    def test_project_codespace_matches_dense(self):
        rng = np.random.default_rng(173)
        code = types.SimpleNamespace(n_physical=3, generators=self.gens)
        proj = sv.codespace_projector(code)
        vec = random_state(rng, 3)
        out = sv.project_codespace(state_from(vec), self.gens)
        assert np.allclose(out.amps, proj @ vec)


def test_dump_lists_only_large_amplitudes():
    s = state_from(np.array([1, 0, 1e-15, 1]) / np.sqrt(2))
    entries = s.dump()
    assert [e[0] for e in entries] == [0, 3]


def test_dense_cap_default_and_override(monkeypatch):
    with pytest.raises(ValueError):
        sv.Statevector(15)
    monkeypatch.setenv("GAUGEQEC_MAX_DENSE_QUBITS", "4")
    with pytest.raises(ValueError):
        sv.Statevector(5)
    assert sv.Statevector(4).n_qubits == 4


class TestSectorMatrix:
    """restricted_matrix on codespace_basis against the frame isometry V."""

    @pytest.mark.parametrize("dims", [[3], [4], [6], [7], [2, 2]])
    def test_matches_the_isometry_route_exactly(self, dims):
        lat = Lattice(dims)
        code = classical_code(lat, require_distance=lat.supports_distance3())
        iso = sv.encoded_isometry(code)
        basis = sv.codespace_basis(code)
        # column b of V is the single basis state basis[b], with amplitude +1
        want_iso = np.zeros_like(iso)
        want_iso[basis, np.arange(len(basis))] = 1.0
        assert np.array_equal(iso, want_iso)
        rng = np.random.default_rng(sum(dims) + 100 * len(dims))
        for _ in range(3):
            h = build_pauli(lat, Couplings(*rng.uniform(0.2, 1.5, 4)))
            if code.n_physical <= 12:
                h_iso = sv.pauli_sum_matrix(h) @ iso
            else:  # [7]: a dense 2^14-square H would take 4.3 GB; apply it per column
                n = code.n_physical
                h_iso = np.stack([sv.apply_pauli_sum(sv.Statevector(n, col), h).amps for col in iso.T], axis=1)
            want = iso.conj().T @ h_iso
            assert np.array_equal(sv.restricted_matrix(h, basis), want)

    def test_basis_is_the_sector_in_logical_order(self):
        # [3]: sites are qubits 0-2 and links 3-5; logical Z on the links and
        # the sign -1 on site 1, so s_0 has only qubit 1 set (index bit 4)
        basis = sv.codespace_basis(classical_code(Lattice([3])))
        assert basis[0] == 0b010000
        assert len(set(basis.tolist())) == 8
        assert not np.array_equal(basis, np.sort(basis))

    def test_term_outside_the_gauge_is_refused(self):
        lat = Lattice([3])
        basis = sv.codespace_basis(classical_code(lat))
        stray = PauliSum(6, [(1.0, parse("XIIIII"))])
        with pytest.raises(ValueError, match=r"term \+XIIIII sends a basis state outside"):
            sv.restricted_matrix(stray, basis)

    @pytest.mark.parametrize("order", ["phase_first", "gauss_first"])
    def test_concatenated_code_is_refused(self, order):
        code = concat_repetition(classical_code(Lattice([3])), order)
        with pytest.raises(ValueError, match="not a signed Z string"):
            sv.codespace_basis(code)

    def test_cap_applies_to_the_sector(self, monkeypatch):
        # [2,3] has 18 physical qubits but a 12-qubit sector
        code = classical_code(Lattice([2, 3]), require_distance=False)
        assert len(sv.codespace_basis(code)) == 1 << 12
        monkeypatch.setenv("GAUGEQEC_MAX_DENSE_QUBITS", "11")
        with pytest.raises(ValueError, match="12 qubits exceeds the dense cap of 11"):
            sv.codespace_basis(code)
