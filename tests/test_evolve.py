"""Evolution-circuit tests: Trotter schedules, exponential gadgets, block
encoding oracles, and the Clifford-only structural check.

Frozen numbers (gadget probabilities, family tables, Toffoli counts) come
from hand derivations double-checked against the dense oracles below before
being pinned here.
"""

import math

import numpy as np
import pytest

from gaugeqec import evolve as ev
from gaugeqec import statevector as sv
from gaugeqec.gauss_code import classical_code
from gaugeqec.hamiltonian import Couplings, build_pauli, to_logical
from gaugeqec.lattice import Lattice
from gaugeqec.pauli import PauliString, PauliSum, parse

from oracles import (
    dense_encoded_block,
    dense_pauli,
    dense_sum,
    expm_hermitian,
    gram_spectral_norm,
    random_hermitian_pauli,
    random_state,
)

CPL = Couplings(1.0, 0.7, 0.35)


def logical_h(dims, couplings: Couplings = CPL) -> PauliSum:
    lat = Lattice(list(dims))
    # [2,2] has a gauge frame but no distance-3 code
    return to_logical(build_pauli(lat, couplings), classical_code(lat, require_distance=lat.supports_distance3()))


def gadget_input(p: PauliString, n_anc: int, rng) -> tuple:
    """Random system state padded with n_anc leading zero ancillas."""
    amp = random_state(rng, p.n_qubits)
    full = np.zeros(1 << (p.n_qubits + n_anc), dtype=complex)
    full[: 1 << p.n_qubits] = amp
    return amp, sv.Statevector(p.n_qubits + n_anc, full)


def strip_measures(c: ev.Circuit) -> ev.Circuit:
    return ev.Circuit(c.n_qubits, dict(c.registers), [g for g in c.gates if g.kind != "measure"])


def exp_of(p: PauliString, t: float) -> np.ndarray:
    return expm_hermitian(sv.pauli_matrix(p), 1j * t)


def rotation(p: PauliString, t: float) -> np.ndarray:
    """cos t + i sin t P from the kron-built Pauli matrix."""
    return math.cos(t) * np.eye(1 << p.n_qubits) + 1j * math.sin(t) * dense_pauli(p)


def trotter_oracle(h: PauliSum, t: float, steps: int, order: int) -> np.ndarray:
    """Product formula multiplied out gate by gate from kron-built rotations."""
    dt = t / steps
    if order == 1:
        seq = [(-c * dt, p) for c, p in h.terms]
    else:
        half = [(-c * dt / 2, p) for c, p in h.terms]
        seq = half + half[::-1]
    step = np.eye(1 << h.n_qubits, dtype=complex)
    for angle, p in seq:
        step = rotation(p, angle) @ step
    out = np.eye(1 << h.n_qubits, dtype=complex)
    for _ in range(steps):
        out = step @ out
    return out


class TestCircuitStructure:
    def test_registers_must_be_disjoint_and_in_range(self):
        with pytest.raises(ValueError, match="overlap"):
            ev.Circuit(2, {"a": (0,), "b": (0, 1)})
        with pytest.raises(ValueError, match="out of range"):
            ev.Circuit(2, {"a": (0, 2)})

    def test_unknown_gate_kind_rejected(self):
        with pytest.raises(ValueError, match="gate kind"):
            ev.Gate("toffoli", (0, 1, 2))

    def test_measurement_confined_to_ancilla_registers(self):
        c = ev.Circuit(3, {"ancilla": (0,), "system": (1, 2)})
        c.measure(0, "ok")
        with pytest.raises(ValueError, match="ancilla"):
            c.measure(1, "bad")
        lat = ev.Circuit(2, {"lattice": (0, 1)})
        with pytest.raises(ValueError, match="ancilla"):
            lat.measure(0, "bad")

    def test_exponential_requires_hermitian_operator(self):
        c = ev.Circuit(2, {"system": (0, 1)})
        with pytest.raises(ValueError, match="Hermitian"):
            c.exp_pauli(0.3, parse("iXZ"))

    def test_controlled_pauli_rejects_overlapping_control(self):
        c = ev.Circuit(2, {"system": (0, 1)})
        with pytest.raises(ValueError, match="control"):
            c.cpauli(0, parse("XX"))

    def test_cnot_needs_distinct_qubits(self):
        c = ev.Circuit(2, {"system": (0, 1)})
        with pytest.raises(ValueError):
            c.cnot(1, 1)

    def test_register_lookup(self):
        c = ev.Circuit(3, {"ancilla": (0,), "system": (1, 2)})
        assert c.register_of(0) == "ancilla"
        assert c.register_of(2) == "system"

    def test_run_requires_matching_width(self):
        c = ev.Circuit(2, {"system": (0, 1)})
        with pytest.raises(ValueError, match="width"):
            ev.run(c, sv.Statevector(3))

    def test_unitary_rejects_mid_circuit_measurement(self):
        c = ev.Circuit(2, {"ancilla": (0,), "system": (1,)})
        c.measure(0, "m")
        c.h(1)
        with pytest.raises(ValueError, match="unitary"):
            ev.circuit_unitary(c)

    def test_trailing_measurements_are_dropped_from_the_unitary(self):
        c = ev.Circuit(2, {"ancilla": (0,), "system": (1,)})
        c.h(1)
        c.measure(0, "m")
        u = ev.circuit_unitary(c)
        assert u.shape == (4, 4)


class TestGateActions:
    def test_hadamard_and_cnot_match_dense_definitions(self):
        c = ev.Circuit(2, {"system": (0, 1)})
        c.h(0)
        c.cnot(0, 1)
        u = ev.circuit_unitary(c)
        bell = u @ sv.Statevector.basis(2, "00").amps
        assert np.allclose(bell, np.array([1, 0, 0, 1]) / math.sqrt(2))

    def test_pauli_gate_matches_matrix_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = random_hermitian_pauli(rng, 3)
            c = ev.Circuit(3, {"system": (0, 1, 2)})
            c.pauli(p)
            assert np.abs(ev.circuit_unitary(c) - sv.pauli_matrix(p)).max() < 1e-12

    def test_exp_pauli_gate_matches_exponential_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = random_hermitian_pauli(rng, 3)
            t = rng.uniform(-2, 2)
            c = ev.Circuit(3, {"system": (0, 1, 2)})
            c.exp_pauli(t, p)
            assert np.abs(ev.circuit_unitary(c) - exp_of(p, t)).max() < 1e-12

    def test_global_phase_gate(self):
        c = ev.Circuit(1, {"system": (0,)})
        c.global_phase(math.pi / 3)
        assert np.allclose(ev.circuit_unitary(c), np.exp(1j * math.pi / 3) * np.eye(2))

    def test_reflection_is_diagonal_signs(self):
        c = ev.Circuit(2, {"a": (0, 1)})
        c.reflection((0, 1))
        assert np.allclose(ev.circuit_unitary(c), np.diag([1, -1, -1, -1]))

    def test_two_qubit_reflection_equals_zz_times_cz(self):
        # 2|00><00| - 1 is Clifford: Z on both qubits followed by CZ
        cz = np.diag([1, 1, 1, -1])
        zz = np.diag([1, -1, -1, 1])
        c = ev.Circuit(2, {"a": (0, 1)})
        c.reflection((0, 1))
        assert np.allclose(ev.circuit_unitary(c), zz @ cz)

    def test_diagonal_runs_stay_between_their_neighbours(self):
        # diagonal exponentials are fused into phase vectors; h, cnot and
        # cpauli do not commute with the runs around them, so a run moved
        # past one of them shows
        n = 3
        z = lambda ops, sign=0: PauliString.from_ops(n, ops, phase_exp=sign)
        eye = np.eye(1 << n)
        proj0 = lambda q: (eye + dense_pauli(z({q: "Z"}))) / 2
        c = ev.Circuit(n, {"system": (0, 1, 2)})
        expected = eye.astype(complex)

        def rot(t, p):
            nonlocal expected
            c.exp_pauli(t, p)
            expected = rotation(p, t) @ expected

        rot(0.3, z({0: "Z"}))
        rot(-0.8, z({0: "Z", 1: "Z"}, sign=2))
        c.h(1)
        expected = (dense_pauli(z({1: "X"})) + dense_pauli(z({1: "Z"}))) / math.sqrt(2) @ expected
        rot(0.45, z({1: "Z", 2: "Z"}))
        c.cnot(1, 2)
        flip = dense_pauli(z({2: "X"}))
        expected = (proj0(1) + (eye - proj0(1)) @ flip) @ expected
        rot(1.1, z({2: "Z"}))
        rot(-0.2, z({0: "Z", 2: "Z"}))
        target = z({1: "X", 2: "Y"})
        c.cpauli(0, target)
        expected = (proj0(0) + (eye - proj0(0)) @ dense_pauli(target)) @ expected
        rot(0.7, z({1: "Z"}, sign=2))
        c.reflection((0, 2))
        expected = (2 * proj0(0) @ proj0(2) - eye) @ expected
        rot(0.9, z({0: "Z", 1: "Z", 2: "Z"}))
        rot(0.6, z({0: "X", 1: "Z"}))
        rot(-1.3, z({0: "Z"}))
        c.global_phase(0.4)
        expected = np.exp(0.4j) * expected
        rot(0.25, z({2: "Z"}))
        assert np.abs(ev.circuit_unitary(c) - expected).max() < 1e-12

    def test_classically_controlled_flip_follows_the_record(self):
        c = ev.Circuit(2, {"ancilla": (0,), "system": (1,)})
        c.pauli(PauliString.from_ops(2, {0: "X"}))
        c.measure(0, "m")
        c.classical_pauli("m", PauliString.from_ops(2, {1: "X"}))
        out, rec = ev.run(c)
        assert rec == {"m": 1}
        assert abs(out.amps[0b11]) == pytest.approx(1.0)


def test_w_gate_frozen_values():
    assert np.allclose(ev.w_gate(0.0), np.eye(2))
    assert np.allclose(ev.w_gate(math.pi / 2) @ np.array([1, 0]), [0, -1j])


def test_w_gate_is_the_x_rotation():
    for t in (0.3, -1.1, math.pi / 5):
        w = ev.w_gate(t)
        assert np.abs(w @ w.conj().T - np.eye(2)).max() < 1e-12
        assert np.allclose(w, exp_of(parse("X"), -t))


class TestExponentialGadget:
    def test_zero_angle_is_the_identity(self):
        rng = np.random.default_rng(2)
        p = parse("XX")
        amp, init = gadget_input(p, 1, rng)
        out, rec = ev.run(ev.lcu_exp_pauli(0.0, p), init)
        assert rec["branch"] == 0
        assert np.abs(out.amps[:4] - amp).max() < 1e-12

    def test_success_branch_applies_the_exponential(self):
        rng = np.random.default_rng(3)
        t = math.pi / 3
        p = parse("Z")
        amp, init = gadget_input(p, 1, rng)
        out, rec = ev.run(ev.lcu_exp_pauli(t, p), init)
        assert rec["branch"] == 0
        target = exp_of(p, t) @ amp
        assert np.abs(out.amps[:2] - target).max() < 1e-12

    def test_success_probability_is_half_for_any_state(self):
        rng = np.random.default_rng(4)
        p = parse("XZX")
        gadget = strip_measures(ev.lcu_exp_pauli(0.9, p))
        for _ in range(8):
            _, init = gadget_input(p, 1, rng)
            out, _ = ev.run(gadget, init)
            prob, _ = ev.project_leading_zeros(out, 1)
            assert prob == pytest.approx(0.5, abs=1e-12)

    def test_failure_branch_carries_the_inverse_rotation(self):
        rng = np.random.default_rng(5)
        t = 0.8
        p = parse("XX")
        amp, init = gadget_input(p, 1, rng)
        out, _ = ev.run(strip_measures(ev.lcu_exp_pauli(t, p)), init)
        bad = out.amps[4:] * math.sqrt(2.0)
        assert np.abs(bad - exp_of(p, -t) @ amp).max() < 1e-12

    def test_sampled_measurement_covers_both_branches(self):
        p = parse("Z")
        t = 0.6
        circ = ev.lcu_exp_pauli(t, p)
        seen = set()
        for seed in range(12):
            rng = np.random.default_rng(seed)
            amp, init = gadget_input(p, 1, np.random.default_rng(99))
            out, rec = ev.run(circ, init, rng=rng)
            seen.add(rec["branch"])
            sign = 1.0 if rec["branch"] == 0 else -1.0
            target = exp_of(p, sign * t) @ amp
            block = out.amps[:2] if rec["branch"] == 0 else out.amps[2:]
            assert np.abs(block - target).max() < 1e-12
        assert seen == {0, 1}

    def test_rejects_non_hermitian_operator(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ev.lcu_exp_pauli(0.3, parse("iXZ"))


# criterion grid shared with the acceptance suite
OAA_GRID_T = (0.1, 0.7, math.pi / 2)
OAA_GRID_P = ("Z", "XX", "XZX")


class TestObliviousAmplification:
    def test_bare_gadget_success_probability_is_one_quarter(self):
        rng = np.random.default_rng(6)
        for t in OAA_GRID_T:
            for text in OAA_GRID_P:
                p = parse(text)
                _, init = gadget_input(p, 2, rng)
                out, _ = ev.run(ev.oaa_v(t, p), init)
                prob, _ = ev.project_leading_zeros(out, 2)
                assert prob == pytest.approx(0.25, abs=1e-10)

    def test_amplified_gadget_is_deterministic_and_exact(self):
        rng = np.random.default_rng(7)
        for t in OAA_GRID_T:
            for text in OAA_GRID_P:
                p = parse(text)
                amp, init = gadget_input(p, 2, rng)
                out, rec = ev.run(ev.oaa_exp_pauli(t, p), init)
                assert rec == {"amplify": 0, "rotate": 0}
                dim = 1 << p.n_qubits
                prob = float(np.sum(np.abs(out.amps[:dim]) ** 2))
                assert prob == pytest.approx(1.0, abs=1e-10)
                target = exp_of(p, t) @ amp
                overlap = abs(np.vdot(target, out.amps[:dim]))
                assert overlap >= 1.0 - 1e-10
                # the construction also fixes the global phase exactly
                assert np.abs(out.amps[:dim] - target).max() < 1e-10

    def test_amplified_circuit_is_unitary(self):
        u = ev.circuit_unitary(ev.oaa_exp_pauli(0.7, parse("XX")))
        assert np.abs(u @ u.conj().T - np.eye(u.shape[0])).max() < 1e-10

    def test_amplification_metadata_reports_certainty(self):
        c = ev.oaa_exp_pauli(0.5, parse("Z"))
        assert c.meta["success"]["probability"] == 1.0

    def test_random_operators_keep_determinism(self):
        rng = np.random.default_rng(8)
        for _ in range(6):
            p = random_hermitian_pauli(rng, 3)
            if p.x_mask == 0 and p.z_mask == 0:
                continue
            t = rng.uniform(-1.5, 1.5)
            amp, init = gadget_input(p, 2, rng)
            out, _ = ev.run(ev.oaa_exp_pauli(t, p), init)
            assert np.abs(out.amps[:8] - exp_of(p, t) @ amp).max() < 1e-10


class TestBlockEncoding:
    def test_chain_of_four_family_table(self):
        oracles = ev.lcu_organize(logical_h([4]))
        assert oracles.dN == 4
        assert oracles.K == 4
        assert oracles.n == 2
        assert oracles.n_coeff == 2
        # mass, both hopping shapes, electric; one positive weight each
        assert oracles.etas == pytest.approx((0.5, 0.35, 0.35, 0.7))
        assert oracles.eta == pytest.approx(1.9)

    def test_prepare_state_is_normalized_and_weighted(self):
        oracles = ev.lcu_organize(logical_h([4]))
        prep = ev.build_prep(oracles)
        assert np.linalg.norm(prep) == pytest.approx(1.0, abs=1e-12)
        # coefficient register is the leading factor: first 4 amplitudes
        # share the mass weight sqrt(0.5/1.9)/2
        assert prep[0] == pytest.approx(math.sqrt(0.5 / 1.9) / 2)
        assert prep[4] == pytest.approx(math.sqrt(0.35 / 1.9) / 2)

    def test_select_is_unitary_with_identity_padding(self):
        h = logical_h([4])
        sel, count = ev.build_select(h)
        assert count == 3
        assert np.abs(sel @ sel.conj().T - np.eye(sel.shape[0])).max() < 1e-12

    def test_select_refuses_an_over_cap_width_before_allocating(self, monkeypatch):
        monkeypatch.delenv("GAUGEQEC_MAX_DENSE_QUBITS", raising=False)
        # [10]: 2 coefficient + 4 index + 10 system qubits, a 68.7 GB matrix
        with pytest.raises(ValueError) as info:
            ev.build_select(logical_h([10]))
        message = str(info.value)
        assert message.startswith("16 qubits exceeds the dense cap of 14")
        assert f"would allocate {16 * 4 ** 16:.3g} bytes" in message

    @pytest.mark.parametrize("dims", [[2], [4], [6]])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_encoded_block_matches_the_dense_select(self, dims, seed):
        rng = np.random.default_rng(seed)
        couplings = Couplings(*(round(float(v), 2) for v in rng.uniform(0.2, 1.5, size=3)))
        oracles = ev.lcu_organize(logical_h(dims, couplings))
        assert np.abs(ev.encoded_block(oracles) - dense_encoded_block(oracles)).max() < 1e-14

    def test_encoded_block_matches_the_scaled_hamiltonian(self):
        h = logical_h([4])
        assert ev.block_encoding_error(h) < 1e-9

    def test_single_term_encoding_is_exact(self):
        h = PauliSum(3)
        h.add_term(-0.8, parse("XZX"))
        assert ev.block_encoding_error(h, dN=1) == pytest.approx(0.0, abs=1e-14)
        oracles = ev.lcu_organize(h, dN=1)
        assert np.abs(ev.encoded_block(oracles) - dense_encoded_block(oracles)).max() < 1e-14

    def test_index_register_is_the_smallest_cover(self):
        # dN/2^n stays in (1/2, 1] for every chain length
        for n_sites in (3, 4, 5, 6, 7, 8):
            dn = n_sites
            n = max(math.ceil(math.log2(dn)), 0)
            ratio = dn / (1 << n)
            assert 0.5 < ratio <= 1.0

    def test_odd_chain_constant_cannot_be_organized(self):
        with pytest.raises(ValueError, match="identity"):
            ev.lcu_organize(logical_h([3]))

    def test_unequal_family_sizes_are_rejected(self):
        h = PauliSum(4)
        for q in range(3):
            h.add_term(0.5, PauliString.from_ops(4, {q: "X"}))
        with pytest.raises(ValueError, match="index slots"):
            ev.lcu_organize(h, dN=4)

    def test_signs_are_absorbed_into_the_operators(self):
        h = PauliSum(2)
        h.add_term(0.5, parse("XI"))
        h.add_term(-0.5, parse("IX"))
        oracles = ev.lcu_organize(h, dN=2)
        assert oracles.etas == pytest.approx((0.5,))
        labels = [p.label() for p in oracles.families[0]]
        assert labels == ["+XI", "-IX"]
        assert ev.block_encoding_error(h, dN=2) < 1e-12
        assert np.abs(ev.encoded_block(oracles) - dense_encoded_block(oracles)).max() < 1e-14

    def test_negative_family_weight_rejected_at_the_type(self):
        p = parse("X")
        with pytest.raises(ValueError, match="positive"):
            ev.LCUOracles(dN=1, n=0, n_coeff=0, etas=(-0.5,), families=((p,),), toffoli_count=0)


class TestToffoliAccounting:
    def test_unary_iteration_count(self):
        assert [ev.select_toffoli_count(n) for n in range(6)] == [0, 1, 3, 7, 15, 31]

    def test_bound_table(self):
        assert ev.toffoli_bounds(2) == (1, 2)
        assert ev.toffoli_bounds(3) == (4, 8)
        assert ev.toffoli_bounds(4) == (11, 20)
        assert ev.toffoli_bounds(5) == (26, 44)

    def test_count_sits_inside_bounds_from_three_up(self):
        for n in (3, 4, 5, 6, 7):
            lo, hi = ev.toffoli_bounds(n)
            assert lo <= ev.select_toffoli_count(n) <= hi

    def test_two_qubit_count_is_reported_but_out_of_band(self):
        # the simple iteration overshoots the tight bound at n=2; callers
        # get the honest count and no containment claim
        lo, hi = ev.toffoli_bounds(2)
        assert ev.select_toffoli_count(2) == 3
        assert ev.select_toffoli_count(2) > hi

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            ev.toffoli_bounds(1)
        with pytest.raises(ValueError):
            ev.select_toffoli_count(-1)


class TestTrotter:
    def test_input_validation(self):
        h = logical_h([3])
        for build in (ev.trotter_circuit, ev.trotter_unitary):
            with pytest.raises(ValueError, match="steps"):
                build(h, 0.5, 0)
            with pytest.raises(ValueError, match="order"):
                build(h, 0.5, 4, order=3)

    @pytest.mark.parametrize("dims", [[3], [2, 2]])
    @pytest.mark.parametrize("order", [1, 2])
    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_step_power_matches_the_gate_product(self, dims, order, steps):
        h = logical_h(dims)
        t = 0.6
        approx = trotter_oracle(h, t, steps, order)
        exact = expm_hermitian(dense_sum(h), -1j * t)
        assert np.abs(ev.trotter_unitary(h, t, steps, order) - approx).max() < 1e-12
        want = np.linalg.norm(approx - exact, 2)
        assert abs(ev.trotter_error(h, t, steps, order) - want) < 1e-12
        assert abs(ev.trotter_error(h, t, steps, order, exact=exact) - want) < 1e-12

    @pytest.mark.parametrize("dims", [[3], [2, 2]])
    @pytest.mark.parametrize("order", [1, 2])
    def test_spectral_norm_matches_the_svd_on_trotter_differences(self, dims, order):
        h = logical_h(dims)
        diff = ev.trotter_unitary(h, 0.6, 3, order) - sv.exact_evolve(h, 0.6)
        np.testing.assert_allclose(sv.spectral_norm(diff), np.linalg.norm(diff, 2), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(sv.spectral_norm(diff), gram_spectral_norm(diff), rtol=1e-12, atol=1e-15)

    def test_spectral_norm_matches_the_svd_on_the_1024_dim_difference(self):
        h = logical_h([10])
        diff = ev.trotter_unitary(h, 0.6, 2, 1) - sv.exact_evolve(h, 0.6)
        assert diff.shape == (1024, 1024)
        np.testing.assert_allclose(sv.spectral_norm(diff), np.linalg.norm(diff, 2), rtol=1e-12, atol=1e-15)

    def test_gate_counts_per_order(self):
        h = logical_h([3])
        n_terms = len(h.terms)
        assert len(ev.trotter_circuit(h, 0.5, 3, 1).gates) == 3 * n_terms
        assert len(ev.trotter_circuit(h, 0.5, 3, 2).gates) == 6 * n_terms

    def test_first_step_follows_the_stored_term_order(self):
        h = logical_h([3])
        c = ev.trotter_circuit(h, 0.5, 2, 1)
        dt = 0.25
        for gate, (coeff, p) in zip(c.gates, h.terms):
            assert gate.kind == "exp_pauli"
            assert gate.params["p"].label() == p.label()
            assert gate.params["t"] == pytest.approx(-coeff * dt)

    def test_commuting_hamiltonian_is_exact_in_one_step(self):
        h = PauliSum(2)
        h.add_term(0.3, parse("ZI"))
        h.add_term(-0.7, parse("ZZ"))
        assert ev.trotter_error(h, 1.3, 1, 1) < 1e-12

    def test_first_order_error_halves_with_steps(self):
        h = logical_h([3])
        e8 = ev.trotter_error(h, 0.5, 8, 1)
        e16 = ev.trotter_error(h, 0.5, 16, 1)
        assert 0.35 <= e16 / e8 <= 0.65

    def test_second_order_error_quarters_with_steps(self):
        h = logical_h([3])
        e8 = ev.trotter_error(h, 0.5, 8, 2)
        e16 = ev.trotter_error(h, 0.5, 16, 2)
        assert 0.15 <= e16 / e8 <= 0.35

    def test_second_order_beats_first_order(self):
        h = logical_h([3])
        assert ev.trotter_error(h, 0.5, 8, 2) < ev.trotter_error(h, 0.5, 8, 1)

    def test_trotter_circuit_is_unitary(self):
        h = logical_h([3])
        u = ev.circuit_unitary(ev.trotter_circuit(h, 0.5, 2, 2))
        assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-10


class TestFaultTolerantCompile:
    def build(self, order=1):
        h = logical_h([3])
        circ = ev.trotter_circuit(h, 0.4, 2, order)
        return circ, ev.ft_compile(circ)

    def test_registers_gain_ancillas_and_rename_to_lattice(self):
        circ, ft = self.build()
        assert ft.registers["oaa"] == (0,)
        assert ft.registers["ancilla"] == (1,)
        assert ft.registers["lattice"] == tuple(q + 2 for q in circ.registers["system"])

    def test_compiled_circuit_reproduces_the_evolution(self):
        circ, ft = self.build(order=2)
        u = ev.circuit_unitary(circ)
        uft = ev.circuit_unitary(ft)
        rng = np.random.default_rng(11)
        dim = u.shape[0]
        for _ in range(3):
            amp = random_state(rng, circ.n_qubits)
            full = np.zeros(4 * dim, dtype=complex)
            full[:dim] = amp
            out = uft @ full
            assert np.abs(out[dim:]).max() < 1e-10
            assert np.abs(out[:dim] - u @ amp).max() < 1e-10

    def test_compiled_circuit_passes_the_structural_check(self):
        _, ft = self.build()
        census = ev.assert_clifford_on_lattice(ft)
        assert census["clifford_only"]
        assert census["lattice_gates"] > 0

    def test_checker_rejects_raw_exponentials_on_the_lattice(self):
        _, ft = self.build()
        bad = ev.Circuit(ft.n_qubits, dict(ft.registers))
        bad.exp_pauli(0.3, PauliString.from_ops(bad.n_qubits, {4: "X"}))
        with pytest.raises(ValueError, match="non-Clifford"):
            ev.assert_clifford_on_lattice(bad)

    def test_checker_rejects_lattice_measurements(self):
        _, ft = self.build()
        bad = ev.Circuit(ft.n_qubits, dict(ft.registers))
        # bypass the builder guard to exercise the checker itself
        bad.gates.append(ev.Gate("measure", (3,), {"key": "m"}))
        with pytest.raises(ValueError, match="measurement"):
            ev.assert_clifford_on_lattice(bad)

    def test_checker_rejects_wide_reflections_on_the_lattice(self):
        _, ft = self.build()
        bad = ev.Circuit(ft.n_qubits, dict(ft.registers))
        bad.reflection((2, 3, 4))
        with pytest.raises(ValueError, match="reflection"):
            ev.assert_clifford_on_lattice(bad)

    def test_w_gates_on_the_system_compile_through_the_gadget(self):
        c = ev.Circuit(1, {"system": (0,)})
        c.w(0.7, 0)
        ft = ev.ft_compile(c)
        ev.assert_clifford_on_lattice(ft)
        u = ev.circuit_unitary(ft)
        amp = np.array([0.6, 0.8j])
        full = np.zeros(8, dtype=complex)
        full[:2] = amp
        out = u @ full
        assert np.abs(out[:2] - ev.w_gate(0.7) @ amp).max() < 1e-10

    def test_compile_requires_a_system_register(self):
        c = ev.Circuit(1, {"ancilla": (0,)})
        with pytest.raises(ValueError, match="system"):
            ev.ft_compile(c)


class TestLogicalGates:
    """Gates on the gauge code of the 3-site chain: 6 physical qubits, and
    2 more gadget ancillas in front for the rotation-based gates."""

    def setup_method(self):
        self.code = classical_code(Lattice([3]))
        # encoded all-zero: +1 eigenstate of every Z-link logical
        self.ket0 = sv.Statevector.basis(8, "00" + "010000").amps
        flip0 = sv.pauli_matrix(self.code.logical_x[0])
        self.ket1 = np.kron(np.eye(4)[0], flip0 @ sv.Statevector.basis(6, "010000").amps)

    def test_double_pauli_is_the_identity(self):
        x = ev.circuit_unitary(ev.logical_gate(self.code, "x", (0,)))
        assert np.abs(x @ x - np.eye(64)).max() < 1e-12

    def test_y_matches_the_pauli_product(self):
        y = ev.circuit_unitary(ev.logical_gate(self.code, "y", (0,)))
        x = ev.circuit_unitary(ev.logical_gate(self.code, "x", (0,)))
        z = ev.circuit_unitary(ev.logical_gate(self.code, "z", (0,)))
        assert np.abs(y - 1j * x @ z).max() < 1e-12

    def test_hadamard_maps_zero_to_plus(self):
        u = ev.circuit_unitary(ev.logical_gate(self.code, "h", (0,)))
        out = u @ self.ket0
        plus = (self.ket0 + self.ket1) / math.sqrt(2)
        assert np.abs(out - plus).max() < 1e-9

    def test_hadamard_squares_to_identity_on_the_code(self):
        u = ev.circuit_unitary(ev.logical_gate(self.code, "h", (0,)))
        iso = sv.encoded_isometry(self.code)
        block = (u @ u)[:64, :64]
        act = iso.conj().T @ block @ iso
        assert np.abs(act - np.eye(8)).max() < 1e-9

    def test_rotation_pair_cancels(self):
        plus = ev.circuit_unitary(ev.logical_gate(self.code, "rz", (0,), theta=0.77))
        minus = ev.circuit_unitary(ev.logical_gate(self.code, "rz", (0,), theta=-0.77))
        prod = plus @ minus
        assert np.abs(prod[:64, :64] - np.eye(64)).max() < 1e-9
        assert np.abs(prod[64:, :64]).max() < 1e-10

    def test_rotation_matches_the_logical_exponential(self):
        theta = 0.41
        u = ev.circuit_unitary(ev.logical_gate(self.code, "rz", (0,), theta=theta))
        target = exp_of(self.code.logical_z[0], theta)
        assert np.abs(u[:64, :64] - target).max() < 1e-9

    def test_cnot_truth_table_on_encoded_basis_states(self):
        u = ev.circuit_unitary(ev.logical_gate(self.code, "cnot", (0, 1)))
        iso = sv.encoded_isometry(self.code)
        act = iso.conj().T @ u[:64, :64] @ iso
        expect = np.zeros((8, 8))
        for b in range(8):
            ctrl = (b >> 2) & 1
            out = b ^ (ctrl << 1)
            expect[out, b] = 1.0
        assert np.abs(act - expect).max() < 1e-9

    def test_gate_circuits_pass_the_structural_check(self):
        for name, args in [("h", (0,)), ("rz", (0,)), ("cnot", (0, 1)), ("x", (1,))]:
            theta = 0.3 if name == "rz" else None
            circ = ev.logical_gate(self.code, name, args, theta=theta)
            census = ev.assert_clifford_on_lattice(circ)
            assert census["clifford_only"]

    def test_input_validation(self):
        with pytest.raises(ValueError, match="angle"):
            ev.logical_gate(self.code, "rz", (0,))
        with pytest.raises(ValueError, match="differ"):
            ev.logical_gate(self.code, "cnot", (1, 1))
        with pytest.raises(ValueError, match="unsupported"):
            ev.logical_gate(self.code, "t", (0,))
        with pytest.raises(ValueError, match="axis"):
            ev.logical_pauli(self.code, "Q", 0)


def test_every_emitted_circuit_is_unitary():
    h = logical_h([3])
    code = classical_code(Lattice([3]))
    circuits = [
        ev.lcu_exp_pauli(0.7, parse("XX")),
        ev.oaa_v(0.4, parse("Z")),
        ev.oaa_exp_pauli(1.1, parse("XZX")),
        ev.trotter_circuit(h, 0.5, 2, 1),
        ev.trotter_circuit(h, 0.5, 2, 2),
        ev.ft_compile(ev.trotter_circuit(h, 0.5, 1, 1)),
        ev.logical_gate(code, "h", (0,)),
        ev.logical_gate(code, "cnot", (0, 2)),
    ]
    for circ in circuits:
        u = ev.circuit_unitary(circ)
        err = np.abs(u @ u.conj().T - np.eye(u.shape[0])).max()
        assert err < 1e-10


def test_projection_rejects_empty_branches():
    state = sv.Statevector.basis(2, "10")
    with pytest.raises(ValueError, match="zero-probability"):
        ev.project_leading_zeros(state, 1)
