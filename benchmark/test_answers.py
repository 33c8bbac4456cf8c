"""Tests of the benchmark's closed forms and input generation.

Run with ``python3 -m pytest benchmark``.  Nothing here imports `arrange`.
"""

from itertools import combinations
from math import factorial

from answers import (arnold_poly, bell, check_report, config_euler,
                     config_p1_poly, coordinate_flats, generic_planes_flats,
                     generic_planes_poly, poly_at, poly_mul,
                     projective_braid_poly, torus_poly)
from jobs import (abstract_partition_doc, det, generic_forms, set_partitions,
                  workload_jobs)


def test_four_generic_planes_are_the_torus():
    # four planes in general position in P^3 are the coordinate ones
    assert generic_planes_poly(4) == torus_poly(3) == [1, 3, 3, 1]
    assert generic_planes_flats(4) == coordinate_flats(3) == 15


def test_generic_planes_truncate_the_torus():
    assert generic_planes_poly(12) == [1, 11, 55, 165]
    assert generic_planes_flats(12) == 299


def test_arnold_counts_chambers_and_deletes_one_factor():
    for n in range(2, 8):
        assert poly_at(arnold_poly(n), 1) == factorial(n)
        assert poly_mul(projective_braid_poly(n), [1, 1]) == arnold_poly(n)


def test_config_p1_fibration():
    assert config_p1_poly(3) == [1, 0, 0, 1]
    # forgetting the last point is a fibration with fiber P^1 minus n points
    for n in range(3, 8):
        assert config_p1_poly(n + 1) == poly_mul(config_p1_poly(n), [1, n - 1])
        assert poly_at(config_p1_poly(n), -1) == config_euler([1], n) == 0


def test_config_euler():
    assert config_euler([1], 2) == 2       # P^1 x P^1 minus the diagonal
    assert config_euler([2], 3) == 6
    assert config_euler([2], 5) == 0
    assert config_euler([1, 1], 4) == 24


def test_bell_numbers_count_partitions():
    assert [bell(n) for n in range(1, 8)] == [1, 2, 5, 15, 52, 203, 877]
    assert all(len(set_partitions(n)) == bell(n) for n in range(1, 7))


def test_generic_forms_are_in_general_position():
    import random
    forms = generic_forms(random.Random(7), 9, 4)
    assert all(det([forms[i] for i in sub]) for sub in combinations(range(9), 4))
    assert det([[1, 2], [2, 4]]) == 0 and det([[2, 0], [0, 3]]) == 6


def test_jobs_follow_the_seed():
    def docs(seed):
        return [j["doc"] for j in workload_jobs("explicit_warm", seed)]
    assert docs(3) == docs(3)
    assert docs(3) != docs(4)


def test_abstract_partition_doc_has_cover_pairs():
    doc = abstract_partition_doc(4)
    poset = doc["model"]["poset"]
    assert len(poset["flats"]) == bell(4) - 1
    # a partition with b blocks is covered by C(b, 2) merges
    assert len(poset["order"]) == sum(
        len(p) * (len(p) - 1) // 2 for p in set_partitions(4) if len(p) < 4)
    assert doc["model"]["ambient"] == [1, 0, 4, 0, 6, 0, 4, 0, 1]


def _torus_report(n):
    poly = torus_poly(n)
    return {"verdicts": [{"check": "oracle_agreement", "ok": True}],
            "poset": {"flat_count": coordinate_flats(n)},
            "mode": "explicit", "betti": poly, "euler": 0,
            "oracle": {"poly": poly},
            "weight_table": [{"k": k, "w": 2 * k, "dim": b}
                             for k, b in enumerate(poly)]}


def test_check_report_accepts_the_torus_and_catches_faults():
    job = {"name": "t", "expect": {"kind": "torus", "n": 3}}
    assert check_report(job, _torus_report(3), 0) == []
    assert check_report(job, _torus_report(3), 2)
    bad = _torus_report(3)
    bad["betti"] = [1, 3, 3, 2]
    assert check_report(job, bad, 0)
    impure = _torus_report(3)
    impure["weight_table"][1]["w"] = 3
    assert check_report(job, impure, 0)
    failed = _torus_report(3)
    failed["verdicts"][0]["ok"] = False
    assert check_report(job, failed, 0)
