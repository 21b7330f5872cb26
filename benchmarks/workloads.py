"""Seeded workload generator for the gaugeqec benchmark.

Each workload is a plain ``gaugeqec run --config`` document. ``run.py``
writes the one it measures to ``benchmarks/out/seed<N>/<workload>.json``, so
any batch the benchmark measured can be rerun by hand:

    gaugeqec run --config benchmarks/out/seed3/decode-2d.json

The same seed always gives the same document. The seed picks the sampled
decode cases, the coupling draws, the Trotter and gadget times, the 12-qubit
Paulis and the gadget input states; the lattice sizes are fixed, because
they set the cost the workload exists to measure.
"""

import json
import os
import random


def _couplings(rng: random.Random) -> dict:
    # two decimals, as a person would type them; the range matches the
    # acceptance suite's spectral-duality draws
    return {name: round(rng.uniform(0.2, 1.5), 2) for name in ("mass", "hopping", "electric", "plaquette")}


def _decode_2d(rng: random.Random) -> list:
    return [
        {"id": "sweep-rg-6x6", "kind": "decode-sweep", "dims": [6, 6], "code": "repetition-gauss"},
        {"id": "sweep-rg-9x9", "kind": "decode-sweep", "dims": [9, 9], "code": "repetition-gauss"},
        {"id": "sweep-rp-6x6", "kind": "decode-sweep", "dims": [6, 6], "code": "repetition-phase"},
        {
            "id": "sampled-rg-12x12",
            "kind": "decode-sweep",
            "dims": [12, 12],
            "code": "repetition-gauss",
            "mode": "sampled",
            "samples": 500,
            "seed": rng.randrange(1 << 31),
        },
        {"id": "validate-rg-9x9", "kind": "code-validate", "dims": [9, 9], "code": "repetition-gauss"},
    ]


def _dense_spectra(rng: random.Random) -> list:
    exps = []
    for trial in range(3):
        couplings = _couplings(rng)
        for dims in ([6], [2, 2]):
            tag = "x".join(map(str, dims))
            exps.append(
                {"id": f"spectrum-{tag}-{trial}", "kind": "spectrum-equivalence", "dims": dims, "couplings": couplings}
            )
    exps.append({"id": "gauge-12x12", "kind": "gauge-invariance", "dims": [12, 12], "couplings": _couplings(rng)})
    exps.append({"id": "boson-10", "kind": "boson-equivalence", "dims": [10], "couplings": _couplings(rng)})
    string = _couplings(rng)
    string["plaquette"] = 0.0  # a chain has no plaquettes
    exps.append({"id": "string-7", "kind": "string-variant", "dims": [7], "couplings": string})
    return exps


def _pauli_label(rng: random.Random, n_qubits: int) -> str:
    while True:
        label = "".join(rng.choice("IXYZ") for _ in range(n_qubits))
        if label.strip("I"):
            return label


def _circuits(rng: random.Random) -> list:
    exps = []
    for dims, order, steps in (([8], 2, 8), ([2, 2], 2, 8), ([10], 1, 2)):
        tag = "x".join(map(str, dims))
        exps.append(
            {
                "id": f"trotter-{tag}",
                "kind": "trotter",
                "dims": dims,
                "couplings": _couplings(rng),
                "t": round(rng.uniform(0.3, 0.8), 3),
                "steps": steps,
                "order": order,
            }
        )
    for dims in ([4], [8]):
        couplings = _couplings(rng)
        couplings["plaquette"] = 0.0  # a chain has no plaquettes
        exps.append({"id": f"lcu-{dims[0]}", "kind": "lcu-check", "dims": dims, "couplings": couplings})
    for i in range(12):
        exps.append(
            {
                "id": f"oaa-{i:02d}",
                "kind": "oaa-check",
                "pauli": _pauli_label(rng, 12),
                "t": round(rng.uniform(0.05, 1.55), 3),
                "seed": rng.randrange(1 << 31),
            }
        )
    return exps


def _acceptance(rng: random.Random) -> list:
    return [{"id": "acceptance", "kind": "acceptance"}]


# why each workload exists is said in BENCHMARK.json and README.md
_BUILDERS = {
    "decode-2d": _decode_2d,
    "dense-spectra": _dense_spectra,
    "circuits": _circuits,
    "acceptance": _acceptance,
}
WORKLOADS = tuple(_BUILDERS)


def generate(name: str, seed: int) -> dict:
    """The ``gaugeqec run --config`` document of one workload for one seed."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return {"seed": seed, "experiments": _BUILDERS[name](rng)}


def write(name: str, seed: int, out_dir: str) -> str:
    """Write the workload's config as ``<out_dir>/<name>.json``; returns the path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(generate(name, seed), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path

