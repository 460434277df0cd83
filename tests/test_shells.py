"""Shell construction and chord geometry against closed circle forms."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk

from chordwigner import (
    HamiltonianSystem,
    NumericalError,
    ShellError,
    build_shell,
    chord_amplitude,
    eval_grid,
    find_chords,
    make_system,
    pure_state,
    quantize_energy,
)
from chordwigner import shells
from chordwigner.flow import _closed_orbit
from chordwigner.shells import _dedup, _search_chords, _solve2

harmonic = make_system("harmonic")
quartic = make_system("quartic")
pendulum = make_system("pendulum")


def circle_shell(e=0.5):
    return build_shell(harmonic, e)


def test_build_shell_circle_geometry():
    shell = circle_shell()
    assert_allclose(shell.period, 2 * np.pi, atol=1e-8)
    assert_allclose(shell.area, 2 * np.pi * 0.5, atol=1e-8)
    # starts at (p, q) = (1, 0) and rotates p -> -q; sample placement
    # carries the adaptive integrator's phase error, well under 1e-6
    th = np.linspace(0, 2 * np.pi, 97)
    assert_allclose(shell.point(th),
                    np.stack([np.cos(th), np.sin(th)], axis=-1), atol=5e-7)
    assert np.max(np.abs(harmonic.energy(shell.points) - 0.5)) < 1e-12


def test_closure_error_is_orbit_closure():
    # |x(T) - x0| of the adaptive orbit, not the spacing of two samples
    for system, e in ((harmonic, 0.5), (quartic, 0.5), (pendulum, -0.4)):
        assert build_shell(system, e).closure_error < 1e-9


def test_action_integral_circle():
    # F(theta) = int cos^2 = theta/2 + sin(2 theta)/4 at E = 0.5
    shell = circle_shell()
    th = np.linspace(0, 4 * np.pi, 33)
    assert_allclose(shell.action_integral(th),
                    th / 2 + np.sin(2 * th) / 4, atol=2e-7)


def test_chord_action_circle_closed_form():
    shell = circle_shell(2.0)
    rng = np.random.default_rng(2)
    tm = rng.uniform(0, 2 * np.pi, 60)
    tp = rng.uniform(0, 2 * np.pi, 60)
    dth = (tp - tm) % (2 * np.pi)
    dmin = np.minimum(dth, 2 * np.pi - dth)
    expected = 2.0 * (dmin - np.sin(dmin))  # (R^2/2)(dth - sin dth), R^2 = 4
    assert_allclose(shell.chord_action(tm, tp), expected, atol=1e-6)
    # same chord read from either tip
    assert_allclose(shell.chord_action(tp, tm),
                    shell.chord_action(tm, tp), atol=1e-12)


def test_chord_action_cubic_near_diagonal():
    # S -> |wedge| * dtheta^2 / 12 as the tips coalesce (cubic degeneracy;
    # the next correction is relative O(dtheta))
    shell = build_shell(quartic, 0.5)
    for th in (0.3, 1.1, 2.9, 4.2):
        for dth in (1e-2, 3e-3):
            s = float(shell.chord_action(th, th + dth))
            w = abs(float(shell.wedge(th, th + dth)))
            assert_allclose(s, w * dth**2 / 12, rtol=6 * dth, atol=2e-9)


def test_find_chords_interior_point_example():
    # E = 0.5 circle, x = (p, q) = (0, 0.5): single chord, short arc 2pi/3
    shell = circle_shell()
    chords = find_chords(shell, (0.0, 0.5))
    assert len(chords) == 1
    c = chords[0]
    assert_allclose(c.centre, [0.0, 0.5], atol=1e-9)
    assert_allclose(c.action, 0.5 * (2 * np.pi / 3 - np.sin(2 * np.pi / 3)),
                    atol=1e-6)
    assert_allclose(c.action, 0.6142, atol=1e-4)
    assert_allclose(c.tau, 2 * np.pi / 3, atol=1e-6)
    assert_allclose(abs(c.wedge), 0.8660, atol=1e-4)
    assert not c.caustic
    assert_allclose(chord_amplitude(c, hbar=0.05), 1.2206, atol=1e-3)


def test_find_chords_near_shell_point():
    # chord shorter than the scan grid: diagonal seeds must still split
    shell = circle_shell()
    chords = find_chords(shell, (0.0, 0.999))
    assert len(chords) == 1
    dth = (chords[0].theta_plus - chords[0].theta_minus) % (2 * np.pi)
    assert_allclose(dth, 2 * np.arccos(0.999), atol=1e-6)


def test_find_chords_on_shell_degenerate():
    shell = circle_shell()
    chords = find_chords(shell, (0.6, 0.8))
    assert len(chords) == 1
    assert chords[0].degenerate and chords[0].caustic
    assert_allclose(chords[0].xi, [0.0, 0.0], atol=1e-9)
    with pytest.raises(ValueError):
        chord_amplitude(chords[0], hbar=0.05)


def test_theta_of_point_converges_on_shell():
    shell = build_shell(quartic, 0.5)
    th = np.linspace(0.1, 6.2, 25)
    assert_allclose(shell.theta_of_point(shell.point(th)), th, atol=1e-10)
    assert_allclose(shell.theta_of_point(shell.point(1.2)), 1.2, atol=1e-10)


def test_theta_of_point_raises_when_unconverged():
    # for x = R (cos phi, sin phi) off the unit circle a step maps
    # theta -> theta - R sin(theta - phi): at R = 5 the root repels
    shell = circle_shell()
    with pytest.raises(NumericalError):
        shell.theta_of_point(5.0 * np.array([np.cos(0.3), np.sin(0.3)]))


def test_find_chords_outside_is_empty():
    shell = circle_shell()
    assert find_chords(shell, (0.0, 1.5)) == []


def test_centre_chords_are_caustic():
    # every diameter is a caustic chord of the centre
    shell = circle_shell()
    centre = find_chords(shell, (0.0, 0.0))
    assert centre and all(c.caustic for c in centre)
    assert min(abs(c.wedge) for c in centre) < 1e-8
    assert min(abs(c.wedge) for c in find_chords(shell, (0.0, 0.5))) > 0.5


def test_chords_canonical_and_centred():
    shell = build_shell(quartic, 0.5)
    rng = np.random.default_rng(9)
    for _ in range(12):
        x = rng.uniform(-0.6, 0.6, size=2)
        for c in find_chords(shell, x):
            dth = (c.theta_plus - c.theta_minus) % (2 * np.pi)
            assert 0.0 <= dth <= np.pi + 1e-12
            assert_allclose(c.centre, x, atol=1e-8)


def _coupled(kind, c):
    """p^2/2 + V(q): V = c^2 q^2 / 2, c q^4 / 2 or -c cos q."""
    v, dv = {"oscillator": (lambda q: 0.5 * c * c * q * q, lambda q: c * c * q),
             "quartic": (lambda q: 0.5 * c * q**4, lambda q: 2 * c * q**3),
             "pendulum": (lambda q: -c * np.cos(q),
                          lambda q: c * np.sin(q))}[kind]
    return HamiltonianSystem(
        kind, value=lambda x: 0.5 * x[..., 0] ** 2 + v(x[..., 1]),
        grad=lambda x: np.stack([x[..., 0], dv(x[..., 1])], axis=-1))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["oscillator", "quartic", "pendulum"]),
       coupling=st.floats(0.3, 30.0), level=st.floats(0.05, 0.9),
       polar=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                st.floats(0.02, 0.98)),
                      min_size=20, max_size=20))
def test_batched_search_matches_pointwise(kind, coupling, level, polar):
    # V grows with |q|, so scaling a shell point towards the origin by
    # rho < 1 lands strictly inside; 20 points span two search blocks
    system = _coupled(kind, coupling)
    e = -coupling + 2 * coupling * level if kind == "pendulum" else level
    shell = build_shell(system, e)
    xs = np.array([rho * shell.point(th) for th, rho in polar])
    found = _search_chords(shell, xs)
    for k, x in enumerate(xs):
        mine = found.owner == k
        single = find_chords(shell, x)
        assert mine.sum() == len(single)
        assert_allclose(found.action[mine], [c.action for c in single],
                        rtol=0, atol=1e-12)
        tm, tp = found.theta_minus[mine], found.theta_plus[mine]
        assert_allclose(0.5 * (shell.point(tm) + shell.point(tp)),
                        np.broadcast_to(x, (len(tm), 2)), atol=1e-8)
        dth = (tp - tm) % (2 * np.pi)
        assert np.all((0.0 <= dth) & (dth <= np.pi + 1e-12))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seeds=st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3),
                                st.integers(-3, 3)), max_size=40))
def test_dedup_matches_sequential_loop(seeds):
    # tips on a 0.7e-6 lattice near 0 and 2 pi: matches chain across
    # seeds and across the wrap, so "an earlier kept seed" matters
    seeds = sorted(seeds, key=lambda s: s[0])
    owner = np.array([s[0] for s in seeds], dtype=int)
    tm = np.array([0.7e-6 * s[1] for s in seeds]) % (2 * np.pi)
    tp = np.array([2.0 + 0.7e-6 * s[2] for s in seeds])
    want, kept = [], {}
    for o, a, c in zip(owner, tm, tp):
        near = lambda u, v: abs((u - v + np.pi) % (2 * np.pi) - np.pi) < 1e-6
        keep = not any(near(a, ka) and near(c, kc)
                       for ka, kc in kept.get(o, []))
        want.append(keep)
        if keep:
            kept.setdefault(o, []).append((a, c))
    assert _dedup(owner, tm, tp).tolist() == want


@pytest.fixture(scope="module")
def builtin_shells():
    return [build_shell(harmonic, 0.5), build_shell(quartic, 0.5),
            build_shell(pendulum, -0.4)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 2), data=st.data())
def test_contains_matches_per_edge_reference(builtin_shells,
                                             even_odd_reference, which, data):
    # coordinates are drawn from the widened bounding box, the samples'
    # own coordinates (a sample's p puts a polygon vertex on the ray) and
    # the box edges; a few p values shared by many points repeat each p
    shell = builtin_shells[which]
    lo, hi = shell.points.min(axis=0), shell.points.max(axis=0)

    def coord(axis):
        return st.one_of(
            st.floats(lo[axis] - 0.2, hi[axis] + 0.2),
            st.sampled_from(shell.points[:, axis].tolist()),
            st.sampled_from([lo[axis], hi[axis]]))

    pool = data.draw(st.lists(coord(0), min_size=1, max_size=6))
    pts = data.draw(st.lists(
        st.one_of(st.tuples(st.sampled_from(pool), coord(1)),
                  st.sampled_from(shell.points.tolist())),
        min_size=1, max_size=40))
    xs = np.array(pts)
    assert np.array_equal(shell.contains(xs), even_odd_reference(shell, xs))
    assert np.array_equal(shell.contains(xs[None]),
                          even_odd_reference(shell, xs[None]))
    one = shell.contains(xs[0])
    assert type(one) is bool and one == even_odd_reference(shell, xs[0])


# 41 x 41 grids over the bounding boxes of builtin_shells
BUILTIN_GRIDS = (((-1.2, 1.2), (-1.2, 1.2)), ((-1.1, 1.1), (-0.95, 0.95)),
                 ((-1.15, 1.15), (-2.0, 2.0)))


def builtin_grid(which):
    (p0, p1), (q0, q1) = BUILTIN_GRIDS[which]
    ps, qs = np.linspace(p0, p1, 41), np.linspace(q0, q1, 41)
    return np.stack(np.meshgrid(ps, qs), axis=-1).reshape(-1, 2)


def full_seeding_chords(shell, xs):
    """Reference chord search: every periodic minimum of the 64 x 64
    midpoint scan, (i, j) and (j, i) alike, seeds a damped Newton that
    runs all 40 passes and abandons no seed.  Returns (owner,
    theta_minus, theta_plus) of the distinct chords of the points of xs
    inside the shell and off it, canonical and deduplicated."""
    on = np.abs(shell.system.energy(xs) - shell.energy) < 1e-10 * (
        1.0 + abs(shell.energy))
    idx = np.flatnonzero(shell.contains(xs) & ~on)
    sub, thg = shell.points[::32], shell.theta[::32]
    h = 2 * np.pi / 64
    mid = 0.5 * (sub[:, None] + sub[None])
    owner, i, j = [np.zeros(0, dtype=int)] * 3
    for b in range(0, len(idx), 128):
        d2 = np.sum((mid - xs[idx[b:b + 128], None, None]) ** 2, axis=-1)
        mins = np.ones(d2.shape, dtype=bool)
        for shift, axis in ((1, 1), (-1, 1), (1, 2), (-1, 2)):
            mins &= d2 <= np.roll(d2, shift, axis=axis)
        o, ii, jj = np.nonzero(mins)
        owner, i, j = (np.concatenate(a) for a in
                       ((owner, idx[b + o]), (i, ii), (j, jj)))
    tm, tp = thg[i] - 0.25 * h, thg[j] + 0.25 * h
    ok = np.zeros(len(tm), dtype=bool)
    for _ in range(40):
        r = 0.5 * (shell.point(tm) + shell.point(tp)) - xs[owner]
        ok |= np.linalg.norm(r, axis=-1) < 1e-10 * np.sqrt(shell.speed_scale)
        jac = 0.5 * np.stack([shell.velocity_theta(tm),
                              shell.velocity_theta(tp)], axis=-1)
        step = np.clip(_solve2(jac, -r), -2 * h, 2 * h)
        step[ok] = 0.0
        tm, tp = tm + step[:, 0], tp + step[:, 1]
    owner, tm, tp = owner[ok], tm[ok], tp[ok]
    swap = (tp - tm) % (2 * np.pi) > np.pi
    tm, tp = np.where(swap, [tp, tm], [tm, tp]) % (2 * np.pi)
    keep = _dedup(owner, tm, tp)
    return owner[keep], tm[keep], tp[keep]


def assert_same_chords(shell, xs):
    """_search_chords finds what full_seeding_chords finds: at every
    point that neither flags caustic, the same chord count, within 1e-8
    rad, and an odd count inside the shell (chord-count parity)."""
    found = _search_chords(shell, xs)
    ref = full_seeding_chords(shell, xs)
    ref_caustic = np.abs(shell.wedge(ref[1], ref[2])) < (
        1e-3 * shell.speed_scale)
    n = len(xs)
    count = np.bincount(found.owner, minlength=n)
    caustic = np.bincount(found.owner[found.caustic], minlength=n) > 0
    either = caustic | (np.bincount(ref[0][ref_caustic], minlength=n) > 0)
    regular = np.flatnonzero(~either)
    assert np.array_equal(count[regular],
                          np.bincount(ref[0], minlength=n)[regular])
    inside = regular[shell.contains(xs[regular])]
    assert np.all(count[inside] % 2 == 1)
    for k in inside:
        mine, theirs = found.owner == k, ref[0] == k
        order = np.argsort((ref[2][theirs] - ref[1][theirs]) % (2 * np.pi))
        for got, want in ((found.theta_minus[mine], ref[1][theirs][order]),
                          (found.theta_plus[mine], ref[2][theirs][order])):
            gap = (got - want + np.pi) % (2 * np.pi) - np.pi
            assert np.max(np.abs(gap)) < 1e-8


@pytest.mark.parametrize("which", [0, 1, 2])
def test_search_matches_full_seeding_on_builtin_grids(builtin_shells, which):
    assert_same_chords(builtin_shells[which], builtin_grid(which))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(which=st.integers(0, 2),
       polar=st.lists(st.tuples(st.floats(0.0, 2 * np.pi),
                                st.floats(0.02, 0.98)),
                      min_size=1, max_size=12))
def test_search_matches_full_seeding_at_random_points(builtin_shells, which,
                                                      polar):
    # scaling a shell point towards the origin lands strictly inside
    shell = builtin_shells[which]
    assert_same_chords(shell, np.array([rho * shell.point(th)
                                        for th, rho in polar]))


@pytest.mark.parametrize("which", [0, 1, 2])
def test_newton_stops_before_pass_cap(builtin_shells, monkeypatch, which):
    # one _solve2 per pass that takes a step; some seeds of each of these
    # searches stall near an antipodal tip pair, and they must not keep
    # the Newton running to its cap of 40 passes
    solved = []
    solve = shells._solve2
    monkeypatch.setattr(shells, "_solve2",
                        lambda a, b: solved.append(len(a)) or solve(a, b))
    shell = builtin_shells[which]
    for xs in (builtin_grid(which), 0.3 * shell.point(3.0)[None]):
        solved.clear()
        _search_chords(shell, xs)
        assert 0 < len(solved) < 40


def _lstsq_rows(a, b):
    return np.array([np.linalg.lstsq(ak, bk, rcond=None)[0]
                     for ak, bk in zip(a, b)])


def _assert_solves_like_lstsq(a, b):
    # both are backward stable, so each row may differ by a few eps
    # times its condition number, relative to the solution's size
    got, want = _solve2(a, b), _lstsq_rows(a, b)
    with np.errstate(divide="ignore"):
        cond = np.minimum(np.linalg.cond(a), 1e300)
    scale = np.linalg.norm(want, axis=-1)
    err = np.linalg.norm(got - want, axis=-1)
    assert np.all(err <= 16 * np.finfo(float).eps * cond * scale)


def test_solve2_matches_lstsq_random_and_near_singular():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(500, 2, 2))
    b = rng.normal(size=(500, 2))
    _assert_solves_like_lstsq(a, b)
    # rank one plus a perturbation from 1e-4 down to 1e-12: rows fall on
    # both sides of Cramer's rule's 1e-8 det cutoff
    u, v = rng.normal(size=(2, 500, 2))
    delta = 10.0 ** rng.uniform(-12, -4, size=(500, 1, 1))
    a = u[:, :, None] * v[:, None, :] + delta * rng.normal(size=(500, 2, 2))
    det = np.abs(np.linalg.det(a)) / np.sum(a * a, axis=(1, 2))
    assert (det > 1e-8).sum() > 50 and (det < 1e-8).sum() > 50
    _assert_solves_like_lstsq(a, b)


def test_solve2_rank_one_and_zero_take_minimum_norm():
    # integer outer products have det == 0 exactly; float ones leave a
    # rounding-noise det that Cramer's rule would divide by
    rng = np.random.default_rng(15)
    b = rng.normal(size=(300, 2))
    for u, v in (rng.integers(-4, 5, size=(2, 300, 2)).astype(float),
                 rng.normal(size=(2, 300, 2))):
        a = u[:, :, None] * v[:, None, :]
        want = _lstsq_rows(a, b)
        err = np.linalg.norm(_solve2(a, b) - want, axis=-1)
        assert np.all(err <= 1e-13 * np.linalg.norm(want, axis=-1))
    zero = np.zeros((4, 2, 2))
    assert np.array_equal(_solve2(zero, b[:4]), np.zeros((4, 2)))


def test_readme_harmonic_grid_never_falls_back_on_svd(monkeypatch):
    # every Newton row of the README grid is well conditioned, so none
    # may reach the SVD fallback; the zero system at the end shows that
    # the count sees the fallback at all
    rows, lstsq = [], shells._lstsq

    def counting(a, b):
        rows.append(len(a))
        return lstsq(a, b)

    monkeypatch.setattr(shells, "_lstsq", counting)
    axis = np.linspace(-1.2, 1.2, 41)
    grid = eval_grid(pure_state(harmonic, 0.05, energy=0.5), axis, axis)
    assert grid.n_chords.sum() > 0 and sum(rows) == 0
    _solve2(np.zeros((1, 2, 2)), np.zeros((1, 2)))
    assert sum(rows) == 1


def test_wedge_is_four_midpoint_jacobians():
    shell = build_shell(quartic, 0.5)
    h = 1e-5
    rng = np.random.default_rng(4)
    for _ in range(8):
        tm, tp = rng.uniform(0, 2 * np.pi, 2)
        mid = lambda a, b: 0.5 * (shell.point(a) + shell.point(b))
        col_m = (mid(tm + h, tp) - mid(tm - h, tp)) / (2 * h)
        col_p = (mid(tm, tp + h) - mid(tm, tp - h)) / (2 * h)
        det = col_m[0] * col_p[1] - col_m[1] * col_p[0]
        # |d(midpoint)/d(theta_-, theta_+)| = |wedge| / 4
        assert_allclose(0.25 * abs(shell.wedge(tm, tp)), abs(det),
                        rtol=1e-4)


def test_pendulum_shell_area_elliptic():
    # libration area: 16 [E(m) - (1 - m) K(m)], m = (1 + E)/2
    e = -0.5
    shell = build_shell(pendulum, e)
    m = (1 + e) / 2
    assert_allclose(shell.area, 16 * (ellipe(m) - (1 - m) * ellipk(m)),
                    atol=1e-7)


def test_quantize_energy_harmonic():
    assert_allclose(quantize_energy(harmonic, 9, 0.05), 0.475, atol=1e-6)
    assert_allclose(quantize_energy(harmonic, 10, 1.0), 10.5, atol=1e-5)


def test_quantize_energy_quartic_self_consistent():
    hbar = 0.05
    e3 = quantize_energy(quartic, 3, hbar)
    shell = build_shell(quartic, e3)
    assert_allclose(shell.area, 2 * np.pi * hbar * 3.5, atol=2e-6)


def _pendulum_area(e):
    m = (1 + e) / 2
    return 16 * (ellipe(m) - (1 - m) * ellipk(m))


def test_quantize_energy_pendulum_near_separatrix():
    # at hbar = 0.5 level 4 needs area 14.14 of the 16 inside the separatrix
    target = 2 * np.pi * 0.5 * 4.5
    expected = brentq(lambda e: _pendulum_area(e) - target, -0.99, 0.999999,
                      xtol=1e-14)
    assert_allclose(quantize_energy(pendulum, 4, 0.5), expected, atol=1e-10)


def test_quantize_energy_raises_beyond_separatrix(monkeypatch):
    # level 5 needs area 17.28, but the separatrix encloses only 16.  The
    # first probe, past the separatrix, is cut at 4 small-oscillation
    # periods; only the recheck of the last cut bracket end runs to 400
    t_max = []

    def counting(system, x0, t, **kwargs):
        t_max.append(t)
        return _closed_orbit(system, x0, t, **kwargs)

    monkeypatch.setattr(shells, "_closed_orbit", counting)
    with pytest.raises(ShellError, match="separatrix"):
        quantize_energy(pendulum, 5, 0.5)
    assert t_max[0] < 400.0
    assert sum(t >= 400.0 for t in t_max) == 1
