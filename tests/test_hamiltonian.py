"""Hamiltonian builder tests: symbolic terms, mappings, and dense duals.

Frozen coefficient tables in this module were derived once from kron-product
dense oracles and hand expansion of the staggered hopping algebra, then
pinned as literals.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from gaugeqec import hamiltonian as ham
from gaugeqec import statevector as sv
from gaugeqec.gauss_code import classical_code, gauss_generators
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import PauliString, PauliSum, parse

from oracles import dense_boson, dense_string_boson, dense_sum, string_factor

CPL = ham.Couplings(m=1.0, epsilon=0.7, lambda_E=0.35)
CPL_P = ham.Couplings(m=1.0, epsilon=0.7, lambda_E=0.35, lambda_P=0.2)


def coeff_of(h: PauliSum, text: str) -> float:
    want = parse(text)
    for c, p in h.terms:
        if p == want:
            return c
    return 0.0


def boson_dict(terms):
    return {t.factors: t.coeff for t in terms}


class TestCouplings:
    def test_plaquette_strength_defaults_to_zero(self):
        assert ham.Couplings(m=1.0, epsilon=0.5, lambda_E=0.25).lambda_P == 0.0

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), float("-inf")])
    def test_non_finite_values_are_rejected(self, bad):
        with pytest.raises(ValueError):
            ham.Couplings(m=bad, epsilon=0.5, lambda_E=0.25)
        with pytest.raises(ValueError):
            ham.Couplings(m=1.0, epsilon=bad, lambda_E=0.25)

    def test_couplings_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            CPL.m = 2.0


class TestSymbolicTerms:
    def test_term_counts_chain_of_four(self):
        counts = Counter(t.kind for t in ham.build_fermionic(Lattice((4,)), CPL))
        assert counts == {"mass": 4, "hop": 4, "electric": 4}

    def test_term_counts_three_by_three(self):
        counts = Counter(t.kind for t in ham.build_fermionic(Lattice((3, 3)), CPL_P))
        assert counts == {"mass": 9, "hop": 18, "electric": 18, "plaquette": 9}

    def test_mass_signs_alternate_with_site_parity(self):
        terms = [t for t in ham.build_fermionic(Lattice((4,)), CPL) if t.kind == "mass"]
        assert [t.sign for t in terms] == [1, -1, 1, -1]
        assert [t.sites for t in terms] == [(0,), (1,), (2,), (3,)]

    def test_hop_terms_carry_both_endpoints_and_the_link(self):
        terms = [t for t in ham.build_fermionic(Lattice((4,)), CPL) if t.kind == "hop"]
        assert all(t.sign == 1 for t in terms)  # no transverse rows in 1d
        wrap = terms[-1]
        assert wrap.sites == (3, 0)
        assert wrap.links == (Lattice((4,)).link_qubit((3,), 0),)

    def test_electric_value_is_the_raw_coupling(self):
        # the factor of two enters only at the Pauli mapping stage
        terms = [t for t in ham.build_fermionic(Lattice((4,)), CPL) if t.kind == "electric"]
        assert all(t.value == pytest.approx(0.35) for t in terms)

    def test_plaquettes_list_four_links(self):
        terms = [t for t in ham.build_fermionic(Lattice((2, 2)), CPL_P) if t.kind == "plaquette"]
        assert len(terms) == 4
        assert all(len(t.links) == 4 for t in terms)

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError):
            ham.FermionicTerm("kinetic", (0,), (), 1, "m", 1.0)
        with pytest.raises(ValueError):
            ham.FermionicTerm("mass", (0,), (), 2, "m", 1.0)

    def test_boson_factor_kinds_are_checked(self):
        with pytest.raises(ValueError):
            ham.BosonTerm(1.0, ((0, "a"),))


class TestModeOperators:
    def test_two_term_form(self):
        op = ham.mode_operator(Lattice((4,)), 2)
        terms = op.complex_terms()
        assert len(terms) == 2
        assert all(abs(c) == pytest.approx(0.5) for c, _ in terms)

    def test_dagger_is_the_adjoint(self):
        lat = Lattice((4,))
        for site in range(4):
            a = sv.pauli_sum_matrix(ham.mode_operator(lat, site, sites_only=True))
            ad = sv.pauli_sum_matrix(ham.mode_operator(lat, site, dagger=True, sites_only=True))
            assert np.abs(ad - a.conj().T).max() < 1e-14

    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    def test_canonical_anticommutators(self, shape):
        lat = Lattice(shape)
        n = lat.n_sites
        mats = [sv.pauli_sum_matrix(ham.mode_operator(lat, s, sites_only=True)) for s in range(n)]
        dags = [m.conj().T for m in mats]
        eye = np.eye(1 << n)
        for a in range(n):
            for b in range(n):
                zero = mats[a] @ mats[b] + mats[b] @ mats[a]
                assert np.abs(zero).max() < 1e-13
                mixed = mats[a] @ dags[b] + dags[b] @ mats[a]
                want = eye if a == b else 0 * eye
                assert np.abs(mixed - want).max() < 1e-13


class TestPauliForm:
    def test_chain_of_four_term_table(self):
        h = ham.build_pauli(Lattice((4,)), CPL)
        assert len(h.terms) == 16
        # staggered mass: a uniform -m/2 Z on every site, no constant for even N
        for site in range(4):
            label = "".join("Z" if q == site else "I" for q in range(8))
            assert coeff_of(h, label) == pytest.approx(-0.5)
        assert coeff_of(h, "I" * 8) == 0.0
        # interior hops: +eps/2 XX X_link, -eps/2 YY X_link
        assert coeff_of(h, "XXIIXIII") == pytest.approx(0.35)
        assert coeff_of(h, "YYIIXIII") == pytest.approx(-0.35)
        assert coeff_of(h, "IXXIIXII") == pytest.approx(0.35)
        assert coeff_of(h, "IYYIIXII") == pytest.approx(-0.35)
        assert coeff_of(h, "IIXXIIXI") == pytest.approx(0.35)
        assert coeff_of(h, "IIYYIIXI") == pytest.approx(-0.35)
        # the wrapping hop picks up the full fermionic string and a sign flip
        assert coeff_of(h, "XZZXIIIX") == pytest.approx(-0.35)
        assert coeff_of(h, "YZZYIIIX") == pytest.approx(0.35)
        # electric field: 2 lambda_E per link
        for link in range(4):
            label = "".join("Z" if q == 4 + link else "I" for q in range(8))
            assert coeff_of(h, label) == pytest.approx(0.7)

    def test_odd_chain_keeps_a_constant(self):
        h = ham.build_pauli(Lattice((3,)), CPL)
        assert coeff_of(h, "I" * 6) == pytest.approx(0.5)

    def test_matrix_matches_kron_oracle(self):
        h = ham.build_pauli(Lattice((3,)), CPL)
        assert np.abs(ham.to_matrix(h) - dense_sum(h)).max() < 1e-13

    def test_matrix_is_hermitian(self):
        mat = ham.to_matrix(ham.build_pauli(Lattice((4,)), CPL))
        assert np.abs(mat - mat.conj().T).max() < 1e-13

    def test_row_hop_string_spans_the_intervening_sites(self):
        # slow-axis neighbors are three modes apart in row-major order, so
        # their hop carries Z on the two modes in between
        h = ham.build_pauli(Lattice((3, 3)), CPL)
        tail = "I" * 17
        assert coeff_of(h, "XZZXIIIII" + "X" + tail) == pytest.approx(-0.35)
        assert coeff_of(h, "YZZYIIIII" + "X" + tail) == pytest.approx(0.35)
        assert coeff_of(h, "IIIIIIIII" + "Z" + tail) == pytest.approx(0.7)

    def test_column_hops_alternate_sign_with_row_parity(self):
        h = ham.build_pauli(Lattice((3, 3)), CPL)
        row0 = "XXIIIIIII" + "I" * 9 + "X" + "I" * 8
        row1 = "IIIXXIIII" + "I" * 12 + "X" + "I" * 5
        assert coeff_of(h, row0) == pytest.approx(0.35)
        assert coeff_of(h, row1) == pytest.approx(-0.35)

    @pytest.mark.parametrize("shape", [(3,), (4,), (6,), (2, 2), (3, 3)])
    def test_every_term_respects_the_gauss_law(self, shape):
        lat = Lattice(shape)
        cpl = CPL_P if len(shape) == 2 else CPL
        h = ham.build_pauli(lat, cpl)
        gens = gauss_generators(lat)
        for _, op in h.terms:
            for g in gens:
                assert op.commutes(g)

    def test_three_by_three_term_count(self):
        assert len(ham.build_pauli(Lattice((3, 3)), CPL_P).terms) == 73


class TestLogicalRewrite:
    def test_chain_of_four_logical_table(self):
        lat = Lattice((4,))
        code = classical_code(lat)
        h = ham.to_logical(ham.build_pauli(lat, CPL), code)
        assert len(h.terms) == 16
        # mass becomes nearest-neighbor ZZ on the link register
        assert coeff_of(h, "ZIIZ") == pytest.approx(-0.5)
        assert coeff_of(h, "ZZII") == pytest.approx(0.5)
        assert coeff_of(h, "IZZI") == pytest.approx(-0.5)
        assert coeff_of(h, "IIZZ") == pytest.approx(0.5)
        # hops become single X with a ZXZ partner of opposite sign
        assert coeff_of(h, "XIII") == pytest.approx(0.35)
        assert coeff_of(h, "XZIZ") == pytest.approx(-0.35)
        assert coeff_of(h, "IXII") == pytest.approx(0.35)
        assert coeff_of(h, "ZXZI") == pytest.approx(-0.35)
        assert coeff_of(h, "IIXI") == pytest.approx(0.35)
        assert coeff_of(h, "IZXZ") == pytest.approx(-0.35)
        # the wrapping hop flips both signs
        assert coeff_of(h, "IIIX") == pytest.approx(-0.35)
        assert coeff_of(h, "ZIZX") == pytest.approx(0.35)
        for q in range(4):
            label = "".join("Z" if i == q else "I" for i in range(4))
            assert coeff_of(h, label) == pytest.approx(0.7)

    def test_chain_duality_is_exact_elementwise(self):
        lat = Lattice((4,))
        code = classical_code(lat)
        v = sv.encoded_isometry(code)
        hp = ham.to_matrix(ham.build_pauli(lat, CPL))
        hl = ham.to_matrix(ham.to_logical(ham.build_pauli(lat, CPL), code))
        assert np.abs(v.conj().T @ hp @ v - hl).max() < 1e-12

    def test_chain_spectra_match_for_random_couplings(self):
        lat = Lattice((4,))
        code = classical_code(lat)
        v = sv.encoded_isometry(code)
        rng = np.random.default_rng(11)
        for _ in range(3):
            m, eps, lam = rng.uniform(0.2, 1.5, size=3)
            cpl = ham.Couplings(m=float(m), epsilon=float(eps), lambda_E=float(lam))
            hp = ham.to_matrix(ham.build_pauli(lat, cpl))
            hl = ham.to_matrix(ham.to_logical(ham.build_pauli(lat, cpl), code))
            restricted = np.linalg.eigvalsh(v.conj().T @ hp @ v)
            assert np.abs(np.sort(restricted) - np.sort(np.linalg.eigvalsh(hl))).max() < 1e-9

    def test_torus_duality_with_plaquettes(self):
        lat = Lattice((2, 2))
        code = classical_code(lat, require_distance=False)
        h = ham.to_logical(ham.build_pauli(lat, CPL_P), code)
        assert len(h.terms) == 32
        # each plaquette turns into a product of four logical X factors
        assert coeff_of(h, "XXIIXIXI") == pytest.approx(0.4)
        assert coeff_of(h, "XXIIIXIX") == pytest.approx(0.4)
        assert coeff_of(h, "IIXXXIXI") == pytest.approx(0.4)
        assert coeff_of(h, "IIXXIXIX") == pytest.approx(0.4)
        v = sv.encoded_isometry(code)
        hp = ham.to_matrix(ham.build_pauli(lat, CPL_P))
        assert np.abs(v.conj().T @ hp @ v - ham.to_matrix(h)).max() < 1e-12

    def test_charged_term_is_rejected(self):
        lat = Lattice((4,))
        code = classical_code(lat)
        bad = PauliSum(8)
        bad.add_term(1.0, PauliString.from_ops(8, {1: "X"}))
        with pytest.raises(ValueError, match="gauge violation"):
            ham.to_logical(bad, code)

    def test_generator_multiples_resolve_with_their_sign(self):
        lat = Lattice((4,))
        code = classical_code(lat)
        # Z_S0 Z_L3 is the first generator times the first logical Z
        h = PauliSum(8)
        h.add_term(2.0, PauliString.from_ops(8, {0: "Z", 7: "Z"}))
        out = ham.to_logical(h, code)
        assert out.terms == [(2.0, parse("ZIII"))]
        # the bare support of an odd-site generator carries its minus sign
        h2 = PauliSum(8)
        h2.add_term(1.0, PauliString.from_ops(8, {1: "Z", 4: "Z", 5: "Z"}))
        out2 = ham.to_logical(h2, code)
        assert out2.terms == [(-1.0, parse("IIII"))]

    def test_term_outside_the_frame_is_rejected(self):
        h = PauliSum(2)
        h.add_term(1.0, PauliString.from_ops(2, {1: "Z"}))
        lx = [PauliString.from_ops(2, {0: "X"})]
        lz = [PauliString.from_ops(2, {0: "Z"})]
        with pytest.raises(ValueError, match="span"):
            ham.rewrite_in_frame(h, [], lx, lz)


class TestHardcoreBosons:
    def test_mass_only_chain_reduces_to_density_pairs(self):
        lat = Lattice((4,))
        cpl = ham.Couplings(m=1.0, epsilon=0.0, lambda_E=0.0)
        h = ham.to_logical(ham.build_pauli(lat, cpl), classical_code(lat))
        got = boson_dict(ham.to_bosonic(h))
        want = {
            ((0, "n"), (3, "n")): -2.0,
            ((0, "n"), (1, "n")): 2.0,
            ((1, "n"), (2, "n")): -2.0,
            ((2, "n"), (3, "n")): 2.0,
        }
        assert set(got) == set(want)
        for key, val in want.items():
            assert got[key] == pytest.approx(val)

    def test_electric_only_chain(self):
        lat = Lattice((4,))
        cpl = ham.Couplings(m=0.0, epsilon=0.0, lambda_E=0.35)
        h = ham.to_logical(ham.build_pauli(lat, cpl), classical_code(lat))
        got = boson_dict(ham.to_bosonic(h))
        assert got[()] == pytest.approx(-2.8)
        for mode in range(4):
            assert got[((mode, "n"),)] == pytest.approx(1.4)
        trimmed = boson_dict(ham.to_bosonic(h, keep_constants=False))
        assert () not in trimmed
        assert len(trimmed) == 4

    def test_hop_expansion_has_no_bare_ladder_term(self):
        lat = Lattice((4,))
        cpl = ham.Couplings(m=0.0, epsilon=0.7, lambda_E=0.0)
        h = ham.to_logical(ham.build_pauli(lat, cpl), classical_code(lat))
        got = boson_dict(ham.to_bosonic(h))
        # neighbor densities gate each ladder operator; bare phi cancels
        assert ((1, "phi"),) not in got
        assert got[((0, "n"), (1, "phi"))] == pytest.approx(0.7)
        assert got[((0, "n"), (1, "phi"), (2, "n"))] == pytest.approx(-1.4)

    @pytest.mark.parametrize("shape", [(4,), (2, 2)])
    def test_dense_realization_matches_the_logical_matrix(self, shape):
        lat = Lattice(shape)
        cpl = CPL_P if len(shape) == 2 else CPL
        code = classical_code(lat, require_distance=len(shape) == 1)
        h = ham.to_logical(ham.build_pauli(lat, cpl), code)
        mat = ham.boson_matrix(ham.to_bosonic(h), h.n_qubits)
        assert np.abs(mat - ham.to_matrix(h)).max() < 1e-12

    def test_unpaired_y_factor_is_rejected(self):
        h = PauliSum(1)
        h.add_term(1.0, parse("Y"))
        with pytest.raises(ValueError, match="non-real"):
            ham.to_bosonic(h)

    def test_paired_y_factors_are_fine(self):
        h = PauliSum(2)
        h.add_term(0.5, parse("YY"))
        mat = ham.boson_matrix(ham.to_bosonic(h), 2)
        assert np.abs(mat - dense_sum(h)).max() < 1e-13

    def test_local_realizer_rejects_repeated_modes(self):
        with pytest.raises(ValueError, match="one factor per mode"):
            ham.boson_matrix([ham.BosonTerm(1.0, ((0, "phi"), (0, "phi_dag")))], 1)

    def test_boson_matrix_respects_the_dense_cap(self):
        with pytest.raises(ValueError, match="dense cap"):
            ham.boson_matrix([ham.BosonTerm(1.0, ((0, "n"),))], 40)

    def test_expansion_over_budget_is_refused_before_expanding(self, monkeypatch):
        h = PauliSum(3)
        h.add_term(1.0, parse("XXZ"))
        h.add_term(0.5, parse("ZII"))
        # 2^3 + 2^1 = 10 products
        monkeypatch.setattr(ham, "BOSON_EXPANSION_BUDGET", 10)
        assert ham.to_bosonic(h)
        monkeypatch.setattr(ham, "BOSON_EXPANSION_BUDGET", 9)
        with pytest.raises(ValueError, match="10 products, above the budget of 9"):
            ham.to_bosonic(h)


def _edge_modes(n: int) -> list:
    return sorted({0, n // 2, n - 1})


def random_local_terms(rng, n: int) -> list:
    """One term per factor kind on the first, middle and last mode; every
    other mode gets a random factor or none."""
    terms = []
    for mode in _edge_modes(n):
        for kind in ham.BOSON_KINDS:
            factors = {mode: kind}
            for other in range(n):
                pick = int(rng.integers(0, 4))
                if other != mode and pick < 3:
                    factors[other] = ham.BOSON_KINDS[pick]
            terms.append(ham.BosonTerm(float(rng.normal()), tuple(sorted(factors.items()))))
    return terms


def random_string_terms(rng, n: int) -> list:
    """One term per factor kind on the first, middle and last mode, placed
    at a random position among up to three random factors."""
    terms = []
    for mode in _edge_modes(n):
        for kind in ham.BOSON_KINDS:
            factors = [
                (int(rng.integers(0, n)), ham.BOSON_KINDS[int(rng.integers(0, 3))])
                for _ in range(int(rng.integers(0, 4)))
            ]
            factors.insert(int(rng.integers(0, len(factors) + 1)), (mode, kind))
            terms.append(ham.BosonTerm(float(rng.normal()), tuple(factors)))
    return terms


class TestDenseBosonsAgainstOracles:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_boson_matrix_matches_the_kron_oracle(self, n):
        terms = random_local_terms(np.random.default_rng(300 + n), n)
        for term in terms:
            assert np.abs(ham.boson_matrix([term], n) - dense_boson([term], n)).max() < 1e-13
        assert np.abs(ham.boson_matrix(terms, n) - dense_boson(terms, n)).max() < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_string_boson_matrix_matches_the_product_oracle(self, n):
        terms = random_string_terms(np.random.default_rng(500 + n), n)
        for term in terms:
            want = dense_string_boson([term], n)
            assert np.abs(ham.string_boson_matrix([term], n) - want).max() < 1e-13
        assert np.abs(ham.string_boson_matrix(terms, n) - dense_string_boson(terms, n)).max() < 1e-13


def frame_product(ops):
    acc = PauliString.identity(ops[0].n_qubits)
    for op in ops:
        acc = acc * op
    return acc


class TestStringFrame:
    @pytest.mark.parametrize("n_sites", [3, 4, 6])
    def test_prefix_z_products_invert_to_link_operators(self, n_sites):
        lat = Lattice((n_sites,))
        gens = gauss_generators(lat)
        _, lz = ham.nonlocal_string_logicals(lat)
        for last in range(n_sites):
            ops = list(lz[: last + 1]) + list(gens[1 : last + 1])
            want = PauliString.from_ops(lat.n_qubits, {n_sites + last: "Z"})
            assert frame_product(ops) == want

    @pytest.mark.parametrize("n_sites", [3, 4, 6])
    def test_x_pairs_invert_to_local_hop_supports(self, n_sites):
        lat = Lattice((n_sites,))
        lx, _ = ham.nonlocal_string_logicals(lat)
        for j in range(n_sites - 1):
            want = PauliString.from_ops(
                lat.n_qubits, {j: "X", j + 1: "X", n_sites + j: "X"}
            )
            assert lx[j] * lx[j + 1] == want
        wrap = PauliString.from_ops(
            lat.n_qubits, {0: "X", n_sites - 1: "X", 2 * n_sites - 1: "X"}
        )
        assert lx[n_sites - 1] == wrap

    @pytest.mark.parametrize("n_sites", [3, 4, 6])
    def test_pairing_and_gauss_commutation(self, n_sites):
        lat = Lattice((n_sites,))
        gens = gauss_generators(lat)
        lx, lz = ham.nonlocal_string_logicals(lat)
        for a in range(n_sites):
            for b in range(n_sites):
                assert lx[a].commutes(lz[b]) == (a != b)
                assert lx[a].commutes(lx[b])
                assert lz[a].commutes(lz[b])
            for g in gens:
                assert lx[a].commutes(g)
                assert lz[a].commutes(g)

    def test_only_chains_are_supported(self):
        with pytest.raises(ValueError):
            ham.nonlocal_string_logicals(Lattice((2, 2)))
        with pytest.raises(ValueError):
            ham.nonlocal_logical_form(Lattice((2, 2)), CPL)

    def test_chain_of_three_term_table(self):
        form = ham.nonlocal_logical_form(Lattice((3,)), CPL)
        want = [
            ("III", 0.5),
            ("IZZ", -0.5),
            ("IZI", 0.5),
            ("IIZ", -0.5),
            ("XXZ", -0.35),
            ("XXI", 0.35),
            ("IYY", 0.35),
            ("IXX", 0.35),
            ("IZX", 0.35),
            ("IIX", -0.35),
            ("ZII", 0.7),
            ("ZZI", 0.7),
            ("ZZZ", 0.7),
        ]
        assert len(form.pauli.terms) == len(want)
        for label, val in want:
            assert coeff_of(form.pauli, label) == pytest.approx(val), label

    def test_frame_duality_is_exact_elementwise(self):
        lat = Lattice((3,))
        form = ham.nonlocal_logical_form(lat, CPL)
        v = sv.frame_isometry(
            lat.n_qubits, gauss_generators(lat), form.logical_x, form.logical_z
        )
        hp = ham.to_matrix(ham.build_pauli(lat, CPL))
        assert np.abs(v.conj().T @ hp @ v - ham.to_matrix(form.pauli)).max() < 1e-12

    def test_spectrum_agrees_with_the_local_frame(self):
        lat = Lattice((3,))
        form = ham.nonlocal_logical_form(lat, CPL)
        local = ham.to_logical(ham.build_pauli(lat, CPL), classical_code(lat))
        a = np.linalg.eigvalsh(ham.to_matrix(form.pauli))
        b = np.linalg.eigvalsh(ham.to_matrix(local))
        assert np.abs(np.sort(a) - np.sort(b)).max() < 1e-9

    def test_string_boson_expansion_spot_values(self):
        form = ham.nonlocal_logical_form(Lattice((3,)), CPL)
        got = boson_dict(form.bosons)
        assert len(got) == 37
        assert got[()] == pytest.approx(2.1)
        assert got[((2, "n"),)] == pytest.approx(0.6)
        assert got[((0, "n"),)] == pytest.approx(-1.4)
        assert got[((0, "n"), (1, "n"))] == pytest.approx(2.0)
        assert got[((2, "n"), (0, "phi"), (1, "phi"))] == pytest.approx(0.7)
        assert got[((0, "n"), (1, "n"), (2, "phi"))] == pytest.approx(1.4)

    def test_string_boson_matrix_matches_the_frame_hamiltonian(self):
        form = ham.nonlocal_logical_form(Lattice((3,)), CPL)
        mat = ham.string_boson_matrix(form.bosons, 3)
        assert np.abs(mat - ham.to_matrix(form.pauli)).max() < 1e-12


def string_ladder(n_modes: int, j: int, dagger: bool = False) -> np.ndarray:
    return string_factor(n_modes, j, "phi_dag" if dagger else "phi")


class TestStringLadderAlgebra:
    def test_on_mode_relations(self):
        n = 3
        eye = np.eye(1 << n)
        for j in range(n):
            f = string_ladder(n, j)
            fd = string_ladder(n, j, dagger=True)
            assert np.abs(fd - f.conj().T).max() < 1e-14
            assert np.abs(f @ fd + fd @ f - eye).max() < 1e-13
            assert np.abs(f @ f).max() < 1e-13
            number = fd @ f
            assert np.abs(number @ number - number).max() < 1e-13

    def test_cross_mode_anticommutator_closes_on_the_pair(self):
        # ladders on distinct modes anticommute up to the bare flip of the
        # higher mode, whose string passes through the lower one
        n = 3
        for a in range(n):
            for b in range(a + 1, n):
                fa, fb = string_ladder(n, a), string_ladder(n, b)
                anti = fa @ fb + fb @ fa
                want = fa @ (string_ladder(n, b) + string_ladder(n, b, dagger=True))
                assert np.abs(anti - want).max() < 1e-13


class TestDenseHelpers:
    def test_single_z_diagonal(self):
        h = PauliSum(1)
        h.add_term(0.25, parse("Z"))
        assert np.abs(ham.to_matrix(h) - np.diag([0.25, -0.25])).max() < 1e-15

    def test_linearity(self):
        rng = np.random.default_rng(7)
        n = 4
        a = PauliSum(n)
        b = PauliSum(n)
        for _ in range(6):
            a.add_term(float(rng.normal()), _random_letters(rng, n))
            b.add_term(float(rng.normal()), _random_letters(rng, n))
        total = a + b
        assert np.abs(ham.to_matrix(total) - ham.to_matrix(a) - ham.to_matrix(b)).max() < 1e-13

    def test_matches_kron_oracle_on_random_sums(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            h = PauliSum(n)
            for _ in range(int(rng.integers(1, 8))):
                h.add_term(float(rng.normal()), _random_letters(rng, n))
            assert np.abs(ham.to_matrix(h) - dense_sum(h)).max() < 1e-13

    def test_dense_cap_is_enforced(self):
        h = PauliSum(20)
        h.add_term(1.0, PauliString.from_ops(20, {0: "Z"}))
        with pytest.raises(ValueError, match="dense cap"):
            ham.to_matrix(h)


def _random_letters(rng, n: int) -> PauliString:
    ops = {}
    for q in range(n):
        letter = "IXYZ"[rng.integers(0, 4)]
        if letter != "I":
            ops[q] = letter
    return PauliString.from_ops(n, ops)


def test_mass_only_logical_spectrum_is_two_level():
    # for three sites only the staggered pair excitation costs energy
    lat = Lattice((3,))
    cpl = ham.Couplings(m=1.0, epsilon=0.0, lambda_E=0.0)
    h = ham.to_logical(ham.build_pauli(lat, cpl), classical_code(lat))
    evs = np.sort(np.linalg.eigvalsh(ham.to_matrix(h)))
    assert np.abs(evs - np.array([0, 0, 0, 0, 0, 0, 2, 2])).max() < 1e-12
