"""Per-draw outputs of the empirical cluster law, pinned bit for bit.

``tests/data/empirical_digests.json`` holds SHA-256 digests of every array
(and the exact bits of every estimate) that the calls below return for an
empirical AR(1) cluster and an empirical SRE cluster at fixed seeds. A change
to how the empirical functionals are computed must reproduce them exactly.

Regenerate the record (only for a deliberate change of value, which
CHANGES.md must then explain) with::

    PYTHONPATH=src python tests/test_bit_identity.py --record
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from selfnorm import clusters, limits, oracles
from selfnorm.experiments import cluster_from_dict

RECORD = Path(__file__).parent / "data" / "empirical_digests.json"

AR1 = {"kind": "ar1", "phi": 0.5,
       "noise": {"kind": "pareto", "alpha": 0.5, "q_plus": 1.0, "q_minus": 0.0}}
SRE = {"kind": "sre",
       "sre_law": {"kind": "lognormal", "alpha": 0.8, "sigma": 1.0, "b_mean": 1.0, "b_sd": 0.0}}
CLUSTERS = {
    "ar1": {"kind": "empirical", "source": AR1, "sample_length": 200_000, "library_seed": 3},
    "sre": {"kind": "empirical", "source": SRE, "sample_length": 100_000, "library_seed": 4},
}


def _array_digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()


def _dict_digests(d: dict) -> dict:
    return {k: _array_digest(v) for k, v in sorted(d.items())}


def _estimate(e) -> dict:
    return {"value": float(e.value).hex(), "stderr": float(e.stderr).hex(), "reps": e.reps,
            "method": e.method}


def _atoms(a) -> dict:
    return _dict_digests({"weights": a.weights, "sum_q": a.sum_q, "max_abs": a.max_abs,
                          "norm_p_p": a.norm_p_p, "sum_abs": a.sum_abs})


def digests(name: str) -> dict:
    """Digests of every empirical-cluster call on one fresh cluster."""
    c = cluster_from_dict(CLUSTERS[name])
    a = c.alpha
    out = {}
    # 12000 draws span three rng chunks of the series sampler's chunk size
    for k, p in enumerate((2.0, a, a + 1.0)):
        out[f"cluster_functionals_p{p:g}"] = _dict_digests(
            clusters.cluster_functionals(c, 12_000, p, seed=20 + k, extra_ps=(4.0,)))
    out["tilted_functionals"] = _dict_digests(clusters.tilted_functionals(c, 3000, 2.0, seed=30))
    out["tilted_functionals_p_alpha1"] = _dict_digests(clusters.tilted_functionals(c, 2000, a + 1.0, seed=31))
    out["lepage_batch"] = _dict_digests(
        limits.sample_limit_lepage_batch(c, a, 2.0, reps=20, n_terms=300, seed=40, first_index=5))
    out["cluster_atoms"] = _atoms(clusters.cluster_atoms(c, p=2.0, n_mc=2000, seed=41))
    out["tilted_atoms"] = _atoms(clusters.tilted_atoms(c, p=2.0, n_mc=2000, seed=42))
    out["tilted_acceptance"] = _estimate(clusters.tilted_acceptance(c, 5000, seed=43))
    out["extremal_index_cluster_max"] = _estimate(
        clusters.extremal_index(c, 5000, seed=44, method="cluster_max"))
    out["cluster_moment"] = _estimate(clusters.cluster_moment(c, 2.0, reps=5000, seed=45))
    out["expected_greenwood"] = _estimate(oracles.expected_greenwood(c, p=2.0, n_mc=20_000, seed=50))
    out["expected_ratio_max"] = _estimate(oracles.expected_ratio_max(c, n_mc=20_000, seed=51))
    out["expected_ratio_student"] = _estimate(oracles.expected_ratio_student(c, p=2.0, n_mc=20_000, seed=52))
    out["expected_kurtosis_limit"] = _estimate(oracles.expected_kurtosis_limit(c, n_mc=20_000, seed=53))
    return out


@pytest.mark.parametrize("name", sorted(CLUSTERS))
def test_empirical_outputs_bit_identical(name):
    recorded = json.loads(RECORD.read_text())[name]
    now = digests(name)
    assert now.keys() == recorded.keys()
    for call in recorded:
        assert now[call] == recorded[call], call


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_bit_identity.py --record")
    RECORD.parent.mkdir(exist_ok=True)
    RECORD.write_text(json.dumps({name: digests(name) for name in sorted(CLUSTERS)}, indent=1) + "\n")
    print(f"wrote {RECORD}")
