"""Code construction, decoding and validation tests.

Structural expectations (weights, parameters, explicit generator labels for
the three-site chain) are frozen from the defining formulas by hand; decoding
is checked exhaustively and, for codes that fit, against the statevector
engine end to end.
"""

import itertools

import numpy as np
import pytest

from gaugeqec import gauss_code as gc
from gaugeqec import statevector as sv
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import PauliString, parse
from oracles import BruteDecoder


def gf2_rank(masks, width):
    rows = []
    for m in masks:
        rows.append([(m >> i) & 1 for i in range(width)])
    mat = np.array(rows, dtype=np.uint8)
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(mat)):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank


class TestGaussGenerators:
    def test_three_site_chain_verbatim(self):
        gens = gc.gauss_generators(Lattice([3]))
        assert [g.label() for g in gens] == ["+ZIIZIZ", "-IZIZZI", "+IIZIZZ"]

    @pytest.mark.parametrize("dims,weight", [([3], 3), ([3, 3], 5), ([2, 2, 2], 7)])
    def test_weight_is_2d_plus_1(self, dims, weight):
        gens = gc.gauss_generators(Lattice(dims))
        assert all(g.weight() == weight for g in gens)

    def test_all_pairs_commute(self):
        gens = gc.gauss_generators(Lattice([3, 3]))
        assert all(a.commutes(b) for a in gens for b in gens)

    def test_sign_alternates_with_site_parity(self):
        lat = Lattice([4])
        gens = gc.gauss_generators(lat)
        assert [g.phase_exp for g in gens] == [0, 2, 0, 2]


class TestClassicalCode:
    def test_parameters_1d(self):
        code = gc.classical_code(Lattice([3]))
        assert code.params == (6, 3, 3)
        assert code.kind == "classical_gauss"
        assert len(code.x_checks) == 0

    def test_parameters_2d(self):
        code = gc.classical_code(Lattice([3, 3]))
        assert code.params == (27, 18, 3)

    def test_small_lattice_needs_escape_hatch(self):
        with pytest.raises(ValueError):
            gc.classical_code(Lattice([2]))
        code = gc.classical_code(Lattice([2, 2]), require_distance=False)
        assert code.params == (12, 8, None)

    def test_logical_shapes(self):
        code = gc.classical_code(Lattice([3]))
        assert all(lz.weight() == 1 and lz.x_mask == 0 for lz in code.logical_z)
        assert all(lx.weight() == 3 and lx.z_mask == 0 for lx in code.logical_x)

    def test_validate_clean(self):
        report = gc.validate(gc.classical_code(Lattice([3])))
        assert report["ok"]
        assert report["rank"] == 3
        assert report["sweep"]["n_errors"] == 6
        assert report["sweep"]["n_corrected"] == 6

    def test_doubled_edges_break_distance(self):
        # two parallel links between the same site pair are indistinguishable
        code = gc.classical_code(Lattice([2, 2]), require_distance=False)
        report = gc.validate(code)
        assert not report["ok"]
        assert any("collision" in f or "not corrected" in f for f in report["failures"])


class TestConcatenation:
    def test_rejects_wrong_input(self):
        code = gc.classical_code(Lattice([3]))
        concat = gc.concat_repetition(code, "phase_first")
        with pytest.raises(ValueError):
            gc.concat_repetition(concat, "phase_first")
        with pytest.raises(ValueError):
            gc.concat_repetition(code, "sideways")

    @pytest.mark.parametrize(
        "dims,order,wz,wx",
        [
            ([3], "phase_first", 9, 2),
            ([3], "gauss_first", 3, 6),
            ([3, 3], "phase_first", 15, 2),
            ([3, 3], "gauss_first", 5, 6),
        ],
    )
    def test_stabilizer_weights(self, dims, order, wz, wx):
        code = gc.concat_repetition(gc.classical_code(Lattice(dims)), order)
        assert max(g.weight() for g in code.gauss_checks) == wz
        assert max(g.weight() for g in code.x_checks) == wx

    def test_parameters(self):
        base = gc.classical_code(Lattice([3]))
        for order in ("phase_first", "gauss_first"):
            code = gc.concat_repetition(base, order)
            assert code.params == (18, 3, 3)

    def test_logical_forms(self):
        base = gc.classical_code(Lattice([3]))
        pf = gc.concat_repetition(base, "phase_first")
        assert all(lz.weight() == 3 for lz in pf.logical_z)
        assert all(lx.weight() == 3 for lx in pf.logical_x)
        gf = gc.concat_repetition(base, "gauss_first")
        assert all(lz.weight() == 3 for lz in gf.logical_z)
        # single-copy logical X: all support inside the first copy
        for lx in gf.logical_x:
            assert lx.x_mask < (1 << base.n_physical)

    @pytest.mark.parametrize("dims", [[3], [4], [5]])
    @pytest.mark.parametrize("order", ["phase_first", "gauss_first"])
    def test_exhaustive_single_error_sweep_1d(self, dims, order):
        code = gc.concat_repetition(gc.classical_code(Lattice(dims)), order)
        report = gc.validate(code)
        assert report["ok"], report["failures"][:5]
        assert report["sweep"]["n_errors"] == 3 * code.n_physical
        assert report["sweep"]["n_corrected"] == 3 * code.n_physical

    @pytest.mark.parametrize("order", ["phase_first", "gauss_first"])
    def test_exhaustive_single_error_sweep_2d(self, order):
        code = gc.concat_repetition(gc.classical_code(Lattice([3, 3])), order)
        report = gc.validate(code)
        assert report["ok"], report["failures"][:5]
        assert report["sweep"]["n_errors"] == 243
        assert report["sweep"]["n_corrected"] == 243

    def test_classical_sweeps_1d(self):
        for n in (3, 4, 5):
            report = gc.validate(gc.classical_code(Lattice([n])))
            assert report["ok"]
            assert report["sweep"]["error_class"] == "X"

    def test_classical_sweep_2d(self):
        report = gc.validate(gc.classical_code(Lattice([3, 3])))
        assert report["ok"]
        assert report["sweep"]["n_corrected"] == 27

    @pytest.mark.parametrize("dims", [[1], [1, 1]])
    def test_one_site_lattice_validates_without_double_error_demo(self, dims):
        report = gc.validate(gc.classical_code(Lattice(dims), require_distance=False))
        assert "double_error_demo" not in report
        assert report["sweep"]["n_errors"] == len(dims) + 1

    def test_self_loop_logical_x_is_on_the_link_alone(self):
        # on an extent-1 axis the link joins the site to itself; its logical X
        # is X on the link, which commutes with the site's Gauss check
        code = gc.classical_code(Lattice([1]), require_distance=False)
        assert code.logical_x == (PauliString(2, 0b10, 0),)
        failures = gc.validate(code)["failures"]
        assert "logical X[0] anticommutes with generator 0" not in failures

    def test_double_error_demo_shows_limit(self):
        report = gc.validate(gc.classical_code(Lattice([4])))
        demo = report["double_error_demo"]
        assert demo["status"] in ("corrected", "uncorrectable")
        assert not demo["faithful"]


class TestDecodeX:
    def test_clean(self):
        code = gc.classical_code(Lattice([3]))
        res = gc.decode_x(code, (0, 0, 0))
        assert res.status == "clean"
        assert res.correction.is_identity()

    def test_single_defect_is_site_error(self):
        code = gc.classical_code(Lattice([4]))
        res = gc.decode_x(code, (0, 1, 0, 0))
        assert res.status == "corrected"
        assert res.correction == parse("IXII" + "IIII")

    def test_adjacent_defects_point_at_shared_link(self):
        lat = Lattice([4])
        code = gc.classical_code(lat)
        for l in range(4):
            bits = [0, 0, 0, 0]
            bits[(l - 1) % 4] = 1
            bits[l] = 1
            res = gc.decode_x(code, bits)
            assert res.status == "corrected"
            expected = 1 << lat.link_qubit(((l - 1) % 4,), 0)
            assert res.correction.x_mask == expected

    def test_non_adjacent_defects_uncorrectable(self):
        code = gc.classical_code(Lattice([4]))
        assert gc.decode_x(code, (1, 0, 1, 0)).status == "uncorrectable"

    def test_three_defects_uncorrectable(self):
        code = gc.classical_code(Lattice([4]))
        assert gc.decode_x(code, (1, 1, 1, 0)).status == "uncorrectable"

    def test_gauss_first_defects_must_share_a_copy(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "gauss_first")
        # copy 1, sites 0 and 1 defective: link error inside copy 1
        bits = [0] * 9
        bits[3] = bits[4] = 1
        res = gc.decode_x(code, bits)
        assert res.status == "corrected"
        assert res.correction.x_mask == 1 << (3 + 6)  # link 0 in copy 1
        # same defects split across copies: not a single error
        bits = [0] * 9
        bits[0] = bits[4] = 1
        assert gc.decode_x(code, bits).status == "uncorrectable"

    def test_phase_first_corrects_on_first_copy(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "phase_first")
        res = gc.decode_x(code, (0, 1, 0))
        assert res.correction.x_mask == 1 << 3  # site 1, first copy qubit


class TestDecodeZ:
    def test_classical_has_no_phase_checks(self):
        with pytest.raises(ValueError):
            gc.decode_z(gc.classical_code(Lattice([3])), ())

    def test_phase_first_triple_patterns(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "phase_first")
        n_pairs = len(code.x_checks) // 2
        for q in range(n_pairs):
            for pattern, pos in (((1, 0), 0), ((1, 1), 1), ((0, 1), 2)):
                bits = [0] * len(code.x_checks)
                bits[2 * q], bits[2 * q + 1] = pattern
                res = gc.decode_z(code, bits)
                assert res.status == "corrected"
                assert res.correction.z_mask == 1 << (3 * q + pos)

    def test_phase_first_multi_triple_uncorrectable(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "phase_first")
        bits = [0] * len(code.x_checks)
        bits[0] = bits[2] = 1
        assert gc.decode_z(code, bits).status == "uncorrectable"

    def test_gauss_first_round_trip_every_qubit(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "gauss_first")
        for q in range(code.n_physical):
            err = PauliString(code.n_physical, 0, 1 << q)
            syn = gc.syndrome_of(code, err)
            res = gc.decode_z(code, syn)
            assert res.status == "corrected"
            assert res.correction.z_mask == 1 << q

    def test_all_zero_is_clean(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "gauss_first")
        assert gc.decode_z(code, [0] * len(code.x_checks)).status == "clean"


class TestSyndromePlumbing:
    def test_syndrome_split(self):
        s = gc.Syndrome((1, 0, 1, 0, 0), 3)
        assert s.gauss_bits == (1, 0, 1)
        assert s.x_bits == (0, 0)
        assert s.weight == 2

    def test_decode_accepts_full_and_partial_bits(self):
        code = gc.concat_repetition(gc.classical_code(Lattice([3])), "phase_first")
        err = PauliString.from_ops(code.n_physical, {0: "X"})
        syn = gc.syndrome_of(code, err)
        from_full = gc.decode_x(code, syn)
        from_slice = gc.decode_x(code, syn.gauss_bits)
        assert from_full == from_slice
        with pytest.raises(ValueError):
            gc.decode_x(code, (1, 0))

    def test_measured_syndrome_matches_symbolic(self):
        code = gc.classical_code(Lattice([3]))
        rng = np.random.default_rng(42)
        for qubit in range(code.n_physical):
            state = sv.Statevector(code.n_physical, [1.0] * 64)
            state.normalize()
            sv.project_codespace(state, list(code.generators) + list(code.logical_z))
            state.normalize()
            sv.inject_error(state, qubit, "X")
            measured = gc.measure_syndrome(code, state)
            assert measured == gc.syndrome_of(code, PauliString.from_ops(6, {qubit: "X"}))
        state = sv.Statevector(code.n_physical, rng.normal(size=64))
        state.normalize()
        with pytest.raises(ValueError):
            gc.measure_syndrome(code, state)


ORACLE_DIMS = ([2], [3], [4], [2, 2], [2, 3], [3, 3])


def lattice_code(dims, kind):
    base = gc.classical_code(Lattice(dims), require_distance=False)
    return base if kind == "classical" else gc.concat_repetition(base, kind)


def outcome(result: gc.DecodeResult) -> tuple:
    return result.status, result.correction


@pytest.mark.parametrize("kind", ["classical", "phase_first", "gauss_first"])
@pytest.mark.parametrize("dims", ORACLE_DIMS, ids=str)
class TestDecoderAgainstBruteForce:
    """The column-table decoder against BruteDecoder; the extent-2 axes of
    [2], [2, 2] and [2, 3] join two sites by two links, so two single X
    errors share a syndrome and the lower qubit must win."""

    def test_one_and_two_qubit_errors(self, dims, kind):
        code = lattice_code(dims, kind)
        oracle = BruteDecoder(code)
        n = code.n_physical
        errors = [PauliString.from_ops(n, {q: a}) for q in range(n) for a in "XYZ"]
        for q1, q2 in itertools.combinations(range(n), 2):
            errors.extend(PauliString.from_ops(n, {q1: a, q2: b}) for a in "XYZ" for b in "XYZ")
        decoded = {}  # the decoders read nothing but the syndrome
        for err in errors:
            syn = gc.syndrome_of(code, err)
            assert syn.bits == oracle.syndrome(err)
            if syn not in decoded:
                decoded[syn] = gc.decode(code, syn)
                assert outcome(decoded[syn]) == oracle.decode(syn.bits)
            residual = err * decoded[syn].correction
            assert gc.acts_trivially(code, residual) == oracle.acts_trivially(residual)
        for bits in {syn.gauss_bits for syn in decoded}:
            assert outcome(gc.decode_x(code, bits)) == oracle.decode_one("X", bits)
        if kind != "classical":
            for bits in {syn.x_bits for syn in decoded}:
                assert outcome(gc.decode_z(code, bits)) == oracle.decode_one("Z", bits)

    def test_one_and_two_defect_patterns(self, dims, kind):
        code = lattice_code(dims, kind)
        oracle = BruteDecoder(code)
        n_gauss, n_x = code.n_gauss, len(code.x_checks)
        parts = [("X", n_gauss, gc.decode_x)]
        if kind != "classical":
            parts.append(("Z", n_x, gc.decode_z))
        for letter, width, decode_part in parts:
            for defects in itertools.chain(*(itertools.combinations(range(width), k) for k in (1, 2))):
                bits = tuple(int(i in defects) for i in range(width))
                assert outcome(decode_part(code, bits)) == oracle.decode_one(letter, bits)
                full = bits + (0,) * n_x if letter == "X" else (0,) * n_gauss + bits
                assert outcome(gc.decode(code, gc.Syndrome(full, n_gauss))) == oracle.decode(full)


def encoded_zero(code) -> sv.Statevector:
    state = sv.Statevector(code.n_physical, [1.0] * (1 << code.n_physical))
    state.normalize()
    sv.project_codespace(state, list(code.generators) + list(code.logical_z))
    return state.normalize()


def test_statevector_decode_round_trip():
    code = gc.classical_code(Lattice([3]))
    zero = encoded_zero(code)
    for qubit in range(code.n_physical):
        state = zero.copy()
        sv.inject_error(state, qubit, "X")
        syn = gc.measure_syndrome(code, state)
        res = gc.decode_x(code, syn)
        assert res.status == "corrected"
        sv.apply_pauli(state, res.correction)
        assert abs(abs(state.overlap(zero)) - 1.0) < 1e-10


class TestHamming:
    def test_frozen_sizes(self):
        hp = gc.concat_hamming(Lattice([3]))
        assert (hp.n_base, hp.r, hp.n_physical, hp.k, hp.k_alt) == (6, 4, 15, 3, 6)
        assert hp.r_formula == pytest.approx(4.5755622, abs=1e-6)
        assert hp.total_formula == pytest.approx(23.8441295, abs=1e-6)
        hp = gc.concat_hamming(Lattice([4]))
        assert (hp.n_base, hp.r, hp.n_physical, hp.k) == (8, 5, 31, 4)
        assert hp.total_formula == pytest.approx(28.0195500, abs=1e-6)

    def test_r_is_minimal(self):
        for dims in ([3], [4], [5]):
            hp = gc.concat_hamming(Lattice(dims))
            assert (1 << hp.r) - 1 - 2 * hp.r >= hp.n_base
            assert (1 << (hp.r - 1)) - 1 - 2 * (hp.r - 1) < hp.n_base

    def test_large_instance_is_parameters_only(self):
        hp = gc.concat_hamming(Lattice([3, 3]))
        assert (hp.r, hp.n_physical, hp.k, hp.k_alt) == (6, 63, 18, 27)
        assert hp.total_formula == pytest.approx(56.8441295, abs=1e-6)
        assert hp.code is None

    def test_explicit_construction_validates(self):
        for dims in ([3], [4]):
            hp = gc.concat_hamming(Lattice(dims))
            report = gc.validate(hp.code)
            assert report["ok"], report["failures"][:5]
            assert hp.code.params == (hp.n_physical, hp.k, 3)

    def test_css_split(self):
        code = gc.concat_hamming(Lattice([3])).code
        assert all(g.x_mask == 0 for g in code.gauss_checks)
        assert all(g.z_mask == 0 for g in code.x_checks)


class TestTable2Fixture:
    def test_rows_match_the_table(self):
        code, _ = gc.table2_fixture()
        assert code.n_physical == 11
        s1 = code.x_checks[0]
        assert s1.x_mask == sum(1 << q for q in (0, 2, 4, 6, 8, 10))
        g3 = code.gauss_checks[2]
        assert g3.z_mask == sum(1 << q for q in (0, 3, 4))
        assert code.logical_z[4].z_mask == sum(1 << q for q in (2, 3, 6))
        assert code.logical_x[3].x_mask == 1 << 7

    def test_report_mode_never_raises(self):
        code, report = gc.table2_fixture()
        assert isinstance(report["failures"], list)
        assert "ok" in report

    def test_rank_against_independent_elimination(self):
        code, report = gc.table2_fixture()
        masks = [g.x_mask | (g.z_mask << 11) for g in code.generators]
        assert report["rank"] == gf2_rank(masks, 22)

    def test_checks_commute(self):
        # the S/G rows themselves are mutually consistent even where the
        # printed logicals are not
        code, report = gc.table2_fixture()
        assert not any("generators" in f and "anticommute" in f for f in report["failures"])


def test_patch_sizes():
    assert gc.patch_sizes(2, doubling=False) == 63
    assert gc.patch_sizes(2, doubling=True) == 27
    with pytest.raises(ValueError):
        gc.patch_sizes(3)


def test_transversal_cnot():
    report = gc.transversal_cnot_check()
    assert report["pass"]
    assert len(report["cases"]) == 4
    for case in report["cases"]:
        assert case["fidelity"] == pytest.approx(1.0, abs=1e-10)
        assert case["stabilizers_plus_one"]


def test_code_kind_is_checked():
    with pytest.raises(ValueError):
        gc.StabilizerCode(1, (), (), (), (1, 0, None), "mystery")
