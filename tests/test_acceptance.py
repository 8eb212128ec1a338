"""Acceptance gate: each test covers one shipped criterion at its stated
tolerance (exact integers throughout) and prints one PASS line on success."""
import json
import subprocess
import sys
import time
from pathlib import Path

from hstarkit.boxgroup import enumerate_box_group
from hstarkit.errors import ScanTooLargeError
from hstarkit.families import (
    delta_cm,
    multiplicativity_pairs,
    prop43_instance,
    remark44_simplex,
    zero_window_family,
)
from hstarkit.hstar import hstar_from_box_group, structural_facts
from hstarkit.io import load_simplex_document
from hstarkit.oracle import (
    _scan,
    cross_validate,
    heldout_count_matches,
    hstar_by_interpolation,
)
from hstarkit.simplex import all_faces, normalized_volume, restrict_to_affine_lattice
from hstarkit.theorem import check_shifted_symmetric, condition_report
from hstarkit.hstar import HStarVector

H = HStarVector.of


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_explicit_simplex_both_paths():
    _scan.cache_clear()
    start = time.perf_counter()
    s = prop43_instance(3, 4)
    box = hstar_from_box_group(enumerate_box_group(s))
    oracle = hstar_by_interpolation(s)
    elapsed = time.perf_counter() - start
    assert box.coeffs == (1, 0, 2, 4, 2)
    assert oracle.coeffs == (1, 0, 2, 4, 2)
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, f"explicit 5-dim simplex h*=(1,0,2,4,2) both paths in {elapsed:.3f}s")


def test_criterion_2_symmetric_family_faces():
    for k in (2, 3):
        start = time.perf_counter()
        s = remark44_simplex(k)
        h = hstar_from_box_group(enumerate_box_group(s))
        expect = [0] * (2 * k + 1)
        expect[0] = expect[k] = expect[2 * k] = 1
        assert h.coeffs == tuple(expect)
        assert check_shifted_symmetric(h, 3 * k - 1)
        proper = 0
        for sel, face_simplex in all_faces(s):
            if len(sel) == s.n_vertices:
                continue
            proper += 1
            fh = hstar_from_box_group(enumerate_box_group(face_simplex))
            assert fh.coeffs == (1,), (k, sel, fh.coeffs)
        assert proper == 2 ** (3 * k) - 2
        elapsed = time.perf_counter() - start
        if k == 3:
            assert elapsed < 10.0, f"k=3 sweep took {elapsed:.3f}s"
    _report(2, "1+t^k+t^2k family: h*, shifted symmetry, all proper faces trivial")


def test_criterion_3_zero_window_regression():
    from hstarkit.theorem import extract_face

    start = time.perf_counter()
    count = 0
    for name, simplex, k in zero_window_family():
        cert = extract_face(simplex, k)
        assert cert.hypothesis_met, name
        assert cert.hstar_match, name
        assert cert.subgroup_ok, name
        assert cert.support_bound_ok, name
        assert cert.lemma31_ok, name
        count += 1
    elapsed = time.perf_counter() - start
    assert count >= 100
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(3, f"{count} zero-window instances extracted, zero failures, {elapsed:.1f}s")


def test_criterion_4_oracle_equivalence_on_corpus(corpus_dir: Path):
    checked = []
    for path in sorted(corpus_dir.glob("*.json")):
        simplex = load_simplex_document(path).to_simplex()
        if simplex.dimension > 5 or normalized_volume(simplex) > 200:
            continue
        cv = cross_validate(simplex)
        assert cv.match, path.name
        assert heldout_count_matches(simplex, cv.box_hstar), path.name
        checked.append(path.name)
    assert checked
    _report(4, f"oracle equivalence + held-out count on {len(checked)} corpus simplices")


def test_criterion_5_join_multiplicativity():
    pairs = multiplicativity_pairs(25)
    assert len(pairs) == 25
    from hstarkit.families import join

    for left, right in pairs:
        hl = hstar_from_box_group(enumerate_box_group(restrict_to_affine_lattice(left)))
        hr = hstar_from_box_group(enumerate_box_group(restrict_to_affine_lattice(right)))
        hj = hstar_from_box_group(enumerate_box_group(join(left, right)))
        assert hj.coeffs == (hl * hr).coeffs
    _report(5, "h* multiplicative on 25 generated join pairs, exactly")


def test_criterion_6_two_term_family_grid():
    oracle_checked = 0
    for c in range(1, 11):
        for m in range(1, 5):
            s = delta_cm(c, m)
            h = hstar_from_box_group(enumerate_box_group(s))
            assert h.coeffs == tuple([1] + [0] * (m - 1) + [c]), (c, m)
            try:
                assert hstar_by_interpolation(s, scan_cap=10**6).coeffs == h.coeffs
                oracle_checked += 1
            except ScanTooLargeError:
                pass
    assert oracle_checked >= 20
    _report(6, f"delta_cm grid 10x4 exact; oracle cross-checked {oracle_checked} cases")


def test_criterion_7_condition_checkers():
    def entry(h, name):
        return next(e for e in condition_report(h) if e.name == name)

    for h1 in range(31):
        for h2 in range(31):
            direct = h2 == 0 or (h2 <= h1 <= 3 * h2 + 3) or (h1 == 7 and h2 == 1)
            assert (entry(H([1, h1, h2]), "scott").status == "satisfied") == direct
    assert entry(H([1, 7, 1]), "scott").detail["via"] == 3

    def is_prime(n):
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    cases = 0
    for i in range(1, 7):
        for j in range(i + 1, 10):
            for v in range(0, 31):
                coeffs = [0] * (j + 1)
                coeffs[0] = 1
                coeffs[i] += 1
                coeffs[j] += v
                h = H(coeffs)
                expected = (
                    i >= 2 and v >= 3 and h.coefficient(i) == 1
                    and 2 + v >= 5 and is_prime(2 + v)
                )
                assert (entry(h, "lemma_hhh").status == "not_realizable") == expected
                cases += 1
    assert cases >= 1000
    _report(7, f"(h1,h2) grid 961 cases and shape grid {cases} cases, exact agreement")


def test_criterion_8_structural_facts_on_corpus(corpus_dir: Path):
    for path in sorted(corpus_dir.glob("*.json")):
        simplex = load_simplex_document(path).to_simplex()
        group = enumerate_box_group(simplex)
        h = hstar_from_box_group(group)
        structural_facts(simplex, h)  # raises InternalCheckError on a violated fact
    _report(8, "classical h* identities hold on the whole corpus, zero violations")


def test_criterion_9_verify_suite_deterministic(corpus_dir: Path):
    def run():
        return subprocess.run(
            [sys.executable, "-m", "hstarkit", "verify-suite", "--corpus", str(corpus_dir)],
            capture_output=True,
        )

    first = run()
    second = run()
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0
    assert first.stdout == second.stdout
    records = [json.loads(line) for line in first.stdout.decode().splitlines()]
    assert not [r for r in records if r["status"] == "fail"]
    _report(9, f"verify-suite byte-identical across runs ({len(records)} records)")
