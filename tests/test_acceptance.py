"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per
criterion summary lines; every tolerance is pinned in the assertions.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from scatmodes import (
    DipoleScene,
    Port,
    ScatterOracle,
    SphereSpec,
    assemble_hybrid,
    basis,
    check_unitary,
    cm_impedance_substructure,
    cm_scattering,
    cm_t_form,
    composed_matvec,
    hybrid_impedance_modes,
    iterate,
    mie_modeset,
    mie_t_coefficients,
    mie_tmatrix,
    mirror_scene,
    recover_currents,
    substructure_power_check,
    tilde_tmatrix,
    transition,
    truncation_order,
)
from scatmodes.hybrid import u4_expansion
from scatmodes.swe import ground_plane_filter

from oracles import mie_reference_dielectric, mie_reference_pec


def _report(num, name, detail):
    print(f"\nACCEPTANCE {num:2d} [{name}]: PASS ({detail})")


def optimal_match(t1, t2):
    cost = np.abs(np.asarray(t1)[:, None] - np.asarray(t2)[None, :])
    rows, cols = linear_sum_assignment(cost)
    return rows, cols, cost[rows, cols]


def assert_multisets_close(t1, t2, rel=1e-6, sig=1e-6, floor=1e-10):
    """Eigenvalue multisets agree to ``rel`` relatively after optimal matching.

    Modes with |t| <= sig on both sides form the zero cluster and are only
    required to stay below sig; matched significant pairs must satisfy
    |dt| <= rel * |t| for clearly significant modes and an absolute floor
    for the remainder.
    """
    t1 = np.asarray(t1)
    t2 = np.asarray(t2)
    s1 = t1[np.abs(t1) > sig]
    s2 = t2[np.abs(t2) > sig]
    assert s1.size == s2.size, f"significant counts differ: {s1.size} vs {s2.size}"
    if s1.size == 0:
        return 0.0
    rows, cols, dev = optimal_match(s1, s2)
    scale = np.maximum(np.abs(s1[rows]), np.abs(s2[cols]))
    ok = dev <= np.maximum(rel * scale, floor)
    assert ok.all(), f"worst pair |dt|={dev.max():.3e} at |t|={scale[np.argmax(dev)]:.3e}"
    return float((dev / scale).max())


# ---------------------------------------------------------------------------
# shared heavy computations
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def equivalence_results(equivalence_bank):
    out = []
    for scene, k in equivalence_bank:
        ts = transition(scene, k)
        out.append({
            "scene": scene, "k": k, "ts": ts,
            "ms_scat": cm_scattering(ts.S, ts.S_b),
            "ms_exc": cm_t_form(ts.T, ts.T_b, "excitation"),
            "ms_sca": cm_t_form(ts.T, ts.T_b, "scattered"),
            "ms_imp": cm_impedance_substructure(ts),
            "tilde": tilde_tmatrix(ts),
        })
    return out


def test_criterion_1_mie_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    cases = [(SphereSpec(1.0, "pec"), (0.5, 1.0, 2.0), mie_reference_pec),
             (SphereSpec(1.0, "dielectric", eps_r=4.0), (0.5, 1.0),
              lambda l, ka: mie_reference_dielectric(l, ka, 4.0))]
    for spec, kas, reference in cases:
        for ka in kas:
            l_max = truncation_order(ka)
            te, tm = mie_t_coefficients(spec, ka, l_max)
            for l in range(1, l_max + 1):
                ote, otm = reference(l, ka)
                worst = max(worst,
                            abs(te[l - 1] - ote) / max(abs(ote), 1e-300),
                            abs(tm[l - 1] - otm) / max(abs(otm), 1e-300))
            assert worst < 1e-10
            # multiplicity 2l+1 of every (l, pol) eigenvalue: exact float
            # equality on the assembled diagonal
            b = basis(l_max)
            diag = np.diag(mie_tmatrix(spec, ka, b))
            ms = mie_modeset(spec, ka, b)
            groups = np.concatenate([te, tm])
            for l in range(1, l_max + 1):
                for pol, coeff in (("TE", te[l - 1]), ("TM", tm[l - 1])):
                    count = int(np.sum(diag == coeff))
                    assert count == 2 * l + 1, (spec.material, ka, l, pol, count)
                    # mode-set count only where the group is isolated from
                    # accidental cross-degeneracies (PEC ka=2 has TM l=1,2
                    # coinciding to ~4e-16)
                    gap = np.abs(groups - coeff)
                    isolated = np.sort(gap)[1] > 1e-13
                    if abs(coeff) > 1e-12 and isolated:
                        count_ms = int(np.sum(np.abs(ms.t - coeff)
                                              <= 1e-14 * abs(coeff) + 2e-16))
                        assert count_ms == 2 * l + 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "mie-oracle", f"max rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_2_lossless_invariants(lossless_bank):
    t0 = time.perf_counter()
    worst = {"unitary": 0.0, "t_power": 0.0, "circle": 0.0, "orth": 0.0, "range": 0.0}
    for scene, k in lossless_bank:
        ts = transition(scene, k)
        dim = ts.S.shape[0]
        dev_u = np.linalg.norm(ts.S.conj().T @ ts.S - np.eye(dim)) / math.sqrt(dim)
        dev_t = np.linalg.norm(ts.T.conj().T @ ts.T + ts.T.real) / math.sqrt(dim)
        ms = cm_scattering(ts.S, ts.S_b)
        # the range engine must reproduce the dense spectrum with the same invariants
        ranged = cm_scattering(ts)
        worst["range"] = max(worst["range"], assert_multisets_close(ms.t, ranged.t))
        for modes in (ms, ranged):
            circle = float(np.max(np.abs(modes.t + 0.5) - 0.5))
            orth = modes.orthogonality
            assert circle <= 1e-8
            assert orth < 1e-8
            worst["circle"] = max(worst["circle"], circle)
            worst["orth"] = max(worst["orth"], orth)
        assert dev_u < 1e-8 and dev_t < 1e-8
        worst["unitary"] = max(worst["unitary"], dev_u)
        worst["t_power"] = max(worst["t_power"], dev_t)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    _report(2, "lossless-invariants",
            f"50 scenes, worst unitarity {worst['unitary']:.2e}, "
            f"t-power {worst['t_power']:.2e}, circle {worst['circle']:.2e}, "
            f"orthogonality {worst['orth']:.2e}, range vs dense engine matched "
            f"rel dev {worst['range']:.2e}, {elapsed:.1f} s")


def test_criterion_3_equivalence_suite(equivalence_results):
    worst_rel = 0.0
    worst_resid = 0.0
    for res in equivalence_results:
        spectra = [res["ms_scat"].t, res["ms_exc"].t, res["ms_sca"].t,
                   res["ms_imp"].t, np.linalg.eigvals(res["tilde"][0])]
        for i in range(len(spectra)):
            for j in range(i + 1, len(spectra)):
                worst_rel = max(worst_rel,
                                assert_multisets_close(spectra[i], spectra[j]))
        resid = res["tilde"][1]
        assert resid < 1e-8
        worst_resid = max(worst_resid, resid)
    _report(3, "equivalence-suite",
            f"20 scenes x 4 formulations pairwise, worst matched rel dev "
            f"{worst_rel:.2e}, worst composed-operator identity residual "
            f"{worst_resid:.2e}")


def test_criterion_4_current_recovery(equivalence_results):
    worst = 0.0
    n_checked = 0
    for res in equivalence_results:
        rec = recover_currents(res["ms_scat"], res["ts"])
        sig = (np.abs(res["ms_scat"].t) > 1e-3) & ~rec.skipped
        if not sig.any():
            continue
        n_checked += int(sig.sum())
        agree = np.nanmax(rec.agreement[sig])
        assert agree < 1e-6
        worst = max(worst, agree)
    assert n_checked > 100
    _report(4, "current-recovery",
            f"{n_checked} modes with |t|>1e-3, worst route disagreement {worst:.2e}")


def test_criterion_5_power_identity(equivalence_results):
    worst = 0.0
    for res in equivalence_results:
        resid = substructure_power_check(res["ts"].T, res["ts"].T_b, res["ms_scat"])
        assert resid.max() < 1e-8
        worst = max(worst, float(resid.max()))
    _report(5, "power-identity", f"all modes of 20 scenes, worst residual {worst:.2e}")


def test_criterion_6_iterative_solver(equivalence_results):
    rng = np.random.default_rng(99)
    t0 = time.perf_counter()
    worst_eig = 0.0
    worst_mv = 0.0
    n_run = 0
    for res in equivalence_results:
        ts = res["ts"]
        if ts.S.shape[0] > 300:
            continue
        n_run += 1
        t_mat, tb_mat = ts.T, ts.T_b
        oracle = ScatterOracle.from_matrices(t_mat, tb_mat)
        composed = 2.0 * tb_mat.conj().T @ t_mat + tb_mat.conj().T + t_mat
        for _ in range(3):
            x = rng.standard_normal(ts.S.shape[0]) + 1j * rng.standard_normal(ts.S.shape[0])
            err = np.linalg.norm(composed_matvec(oracle, x) - composed @ x)
            err /= max(np.linalg.norm(composed @ x), 1e-300)
            assert err < 1e-12
            worst_mv = max(worst_mv, err)
        est = iterate(oracle, n_modes=5, max_iter=60)
        assert est.diagnostics["iterations"] <= 60
        dense_top = np.abs(res["ms_exc"].t[:5])
        err = np.abs(dense_top - np.abs(est.t[:5])).max()
        assert err < 1e-6
        worst_eig = max(worst_eig, float(err))
    elapsed = time.perf_counter() - t0
    assert n_run == len(equivalence_results)
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.1f}s"
    _report(6, "iterative-solver",
            f"{n_run} scenes, worst top-5 |t| error {worst_eig:.2e}, "
            f"worst matvec residual {worst_mv:.2e}, {elapsed:.1f} s")


def test_criterion_7_ground_plane(ground_plane_bank):
    """Image-reduced path vs brute force on the explicit mirrored scene.

    The brute-force eigenvalue multiset must equal the union of the
    allowed-parity (image-reduced path) and forbidden-parity spectra to
    1e-8.  Forbidden-parity eigenvector content is asserted below 1e-10 for
    the brute-force modes whose eigenvalues are isolated from the opposite
    parity class (where classification is well posed), and for every
    image-reduced mode, whose vectors live on the full basis.
    """
    worst_dt = 0.0
    worst_forbidden = 0.0
    n_vectors = 0
    for scene, k in ground_plane_bank:
        ms_filtered = cm_scattering(transition(scene, k))
        ts = transition(mirror_scene(scene), k)
        ms_full = cm_scattering(ts.S, ts.S_b)
        keep = ground_plane_filter(ts.basis)
        drop = np.setdiff1d(np.arange(ts.basis.size), keep)
        ms_odd = cm_scattering(ts.S[np.ix_(drop, drop)],
                               ts.S_b[np.ix_(drop, drop)])

        sig = 1e-9
        t_union = np.concatenate([ms_filtered.t, ms_odd.t])
        s1 = t_union[np.abs(t_union) > sig]
        s2 = ms_full.t[np.abs(ms_full.t) > sig]
        assert len(s1) == len(s2)
        _, _, dev = optimal_match(s1, s2)
        assert dev.max() < 1e-8
        worst_dt = max(worst_dt, float(dev.max(initial=0.0)))

        allowed = np.zeros(ts.basis.size)
        allowed[keep] = 1.0
        assert np.sqrt(((1.0 - allowed)[:, None] * np.abs(ms_filtered.a) ** 2)
                       .sum(axis=0)).max() < 1e-10
        odd_sig = ms_odd.t[np.abs(ms_odd.t) > sig]
        for n in range(ms_full.n_modes):
            t_n = ms_full.t[n]
            if abs(t_n) <= 1e-6:
                continue
            gap = np.abs(odd_sig - t_n).min(initial=np.inf)
            even = np.abs(ms_filtered.t - t_n).min(initial=np.inf) < gap
            if not even or gap < 1e-4:
                continue
            n_vectors += 1
            forbidden = math.sqrt(float(
                ((1.0 - allowed) * np.abs(ms_full.a[:, n]) ** 2).sum()))
            assert forbidden < 1e-10
            worst_forbidden = max(worst_forbidden, forbidden)
    assert n_vectors >= 30
    _report(7, "ground-plane",
            f"10 scenes, filtered vs mirrored worst |dt| {worst_dt:.2e}, "
            f"max forbidden-parity content {worst_forbidden:.2e}")


def test_criterion_8_hybrid():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    k = 2.0
    sphere = SphereSpec(0.08, "dielectric", eps_r=4.0)
    n = 7
    pos = rng.normal(size=(n, 3))
    pos /= np.linalg.norm(pos, axis=1)[:, None]
    pos *= (0.62 + 0.18 * rng.random(n))[:, None]
    scene = DipoleScene(pos, 6.0 * math.pi / k**3 * (0.3 + rng.random(n)),
                        ("background",) * 3 + ("controllable",) * 4, sphere=sphere)
    wb = basis(18)
    expansion = u4_expansion(scene, k, wb)
    blocks = assemble_hybrid(scene, k, wave_basis=wb, expansion=expansion)
    u4_resid = float(expansion[1].max())

    ms_s = cm_scattering(blocks)
    ms_i = hybrid_impedance_modes(scene, k, wb, expansion=expansion)
    sig = 1e-6
    m1 = np.abs(ms_s.t[np.abs(ms_s.t) > sig])
    m2 = np.abs(ms_i.t[np.abs(ms_i.t) > sig])
    assert m1.size == m2.size
    _, _, dev = optimal_match(m1, m2)
    assert dev.max() < 1e-5
    path_dev = float(dev.max())

    # vacuum-sphere limit reduces to the pure dipole backend
    vac = replace(scene, sphere=SphereSpec(sphere.radius, "dielectric", eps_r=1.0))
    sys_v = assemble_hybrid(vac, k, wave_basis=wb)
    ms_v = cm_scattering(sys_v)
    ts_mom = transition(replace(scene, sphere=None), k, wave_basis=wb)
    ms_mom = cm_scattering(ts_mom.S, ts_mom.S_b)
    sig = 1e-9
    v1 = ms_v.t[np.abs(ms_v.t) > sig]
    v2 = ms_mom.t[np.abs(ms_mom.t) > sig]
    assert v1.size == v2.size
    _, _, dev_v = optimal_match(v1, v2)
    assert dev_v.max() < 1e-10

    # sphere-only limit reduces to the analytic T-matrix
    empty = DipoleScene(np.zeros((0, 3)), np.zeros(0), (), sphere=sphere)
    ts_sphere = assemble_hybrid(empty, k, wb)
    t_mie = mie_tmatrix(sphere, k, wb)
    dev_m = float(np.abs(ts_sphere.T - t_mie).max())
    assert dev_m < 1e-8

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, "hybrid",
            f"path agreement {path_dev:.2e}, vacuum limit {float(dev_v.max()):.2e}, "
            f"sphere-only vs analytic {dev_m:.2e}, U4 residual {u4_resid:.2e}, "
            f"{elapsed:.1f} s")


def test_criterion_9_ports():
    k = 2.0
    worst_unitary = 0.0
    worst_dt = 0.0
    n_quiet = 0
    # two constructed symmetric scenes: all-controllable trio, and the
    # same trio with the outer pair declared background
    trio = np.array([[0.0, -0.35, 0.0], [0.0, 0.0, 0.0], [0.0, 0.35, 0.0]])
    alpha = 6.0 * math.pi / k**3 * 0.8
    for region in (None, ("background", "controllable", "background")):
        scene0 = DipoleScene(trio, alpha, region)
        scene1 = DipoleScene(trio, alpha, region, ports=(Port(1, "x", 73.0),))
        ts = transition(scene0, k)
        gs = transition(scene1, k, ts.basis)
        dev = check_unitary(gs.S)
        assert dev < 1e-8
        worst_unitary = max(worst_unitary, dev)

        ms0 = cm_scattering(ts.S, ts.S_b)
        dim = gs.S.shape[0]
        sb_aug = np.eye(dim, dtype=complex)
        sb_aug[:ts.S_b.shape[0], :ts.S_b.shape[0]] = ts.S_b
        ms1 = cm_scattering(gs.S, sb_aug)

        currents = np.linalg.solve(ts.system, ts.readout.T @ ms0.a)
        inv = np.empty_like(ts.perm)
        inv[ts.perm] = np.arange(ts.perm.size)
        port_row = inv[3 * 1 + 0]
        rel = np.abs(currents[port_row]) / np.linalg.norm(currents, axis=0).clip(1e-300)
        quiet = (rel < 1e-12) & (np.abs(ms0.t) > 1e-9)
        assert quiet.sum() >= 2
        n_quiet += int(quiet.sum())
        for n in np.flatnonzero(quiet):
            d = np.abs(ms1.t - ms0.t[n]).min()
            assert d < 1e-8
            worst_dt = max(worst_dt, float(d))
    _report(9, "ports",
            f"unitarity {worst_unitary:.2e}, {n_quiet} quiet modes preserved, "
            f"worst |dt| {worst_dt:.2e}")


def test_criterion_10_determinism(tmp_path):
    from scatmodes.cli import main

    scenario = {
        "version": 1,
        "scene": {
            "dipoles": [
                {"position": [0.0, 0.0, 0.08], "polarizability": 0.02},
                {"position": [0.06, 0.0, -0.05], "polarizability": 0.015},
                {"position": [-0.05, 0.05, 0.0], "polarizability": 0.02,
                 "region": "background"},
            ],
        },
        "sweep": {"f_min": 5.0e8, "f_max": 8.0e8, "n_points": 3},
        "solver": "iterative",
        "n_modes": 4,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    for run in ("r1", "r2"):
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / run),
                     "--seed", "11", "--jobs", "2", "--dump-vectors"])
        assert code == 0
    n_bytes = 0
    for name in ("traces.csv", "diagnostics.json", "vectors.json"):
        a = (tmp_path / "r1" / name).read_bytes()
        b = (tmp_path / "r2" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"
        n_bytes += len(a)
    _report(10, "determinism", f"2 runs byte-identical across {n_bytes} bytes")
