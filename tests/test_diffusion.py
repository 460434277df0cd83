"""The shell-averaged bracket rate and the energy-window growth law."""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from chordwigner import make_system
from chordwigner.diffusion import (
    bracket_rate,
    window_width,
    write_diffusion_report,
)
from chordwigner.flow import hamiltonian_flow
from chordwigner.lindblad import (
    LindbladChannel,
    NonHermitianError,
    hermitian_decay_rate,
    momentum_channel,
    polynomial_channel,
    position_channel,
)
from chordwigner.shells import Chord

harmonic = make_system("harmonic")


def test_bracket_rate_position_channel():
    assert_allclose(bracket_rate(0.5, [position_channel()], harmonic), 0.5,
                    atol=1e-6)


def test_bracket_rate_energy_channel_vanishes():
    chan = LindbladChannel("sin H", lambda x: np.sin(harmonic.energy(x)))
    assert abs(bracket_rate(0.5, [chan], harmonic)) < 1e-10


def test_bracket_rate_both_quadratures():
    rate = bracket_rate(0.5, [position_channel(), momentum_channel()],
                        harmonic)
    assert_allclose(rate, 1.0, atol=1e-6)  # <p^2> + <q^2> = 2E
    with pytest.raises(NonHermitianError):
        bracket_rate(0.5, [polynomial_channel({(1, 0): 1j})], harmonic)


@pytest.mark.parametrize("name, k", [("harmonic", 2), ("quartic", 4)])
def test_bracket_rate_meets_virial_theorem(name, k):
    # {H, q} = -p, and for V ~ |q|^k the virial theorem gives
    # <p^2> = 2 k E / (k + 2) on the orbit at energy E
    system = make_system(name)
    for energy in (0.05, 0.5, 2.0, 10.0):
        assert_allclose(bracket_rate(energy, [position_channel()], system),
                        2 * k * energy / (k + 2), rtol=5e-11)


def test_window_width_example_and_linearity():
    rate = bracket_rate(0.5, [position_channel()], harmonic)
    eps = window_width(0.1, 0.0, 0.05, rate)
    assert eps == 0.1
    eps = window_width(0.1, 2.0, 0.05, rate)
    assert_allclose(eps**2, 0.06, atol=1e-7)
    assert_allclose(eps, 0.244949, atol=1e-4)
    # growth is exactly linear in t with slope hbar * rate
    for t in (0.3, 1.1, 1.9):
        eps_t = window_width(0.1, t, 0.05, rate)
        assert_allclose(eps_t**2 - 0.01, 0.05 * t * rate,
                        atol=1e-12)


def test_window_width_coupling_scaling():
    grow = lambda c: window_width(
        0.0, 1.0, 0.05, bracket_rate(0.5, [position_channel(c)], harmonic))**2
    assert_allclose(grow(2.0), 4.0 * grow(1.0), rtol=1e-9)


def test_short_chord_bridges_decay_rate():
    # hermitian_decay_rate on a short chord ~ (tau^2 / 2 hbar) |{H,L}|^2
    hbar = 0.05
    x = np.array([0.5, 0.6])
    br2 = x[0] ** 2  # {H, q} = -dH/dp = -p
    errs = []
    for tau in (0.2, 0.1, 0.05):
        fwd = hamiltonian_flow(harmonic, x, tau / 2, dt=tau / 400).final
        bwd_m = hamiltonian_flow(harmonic, np.array([-x[0], x[1]]), tau / 2,
                                 dt=tau / 400).final
        bwd = np.array([-bwd_m[0], bwd_m[1]])
        chord = Chord(x_plus=fwd, x_minus=bwd, theta_plus=0.0,
                      theta_minus=0.0, action=0.0, wedge=1.0, tau=tau,
                      caustic=False)
        rate = hermitian_decay_rate(chord, [position_channel()], hbar)
        errs.append(abs(rate - tau**2 / (2 * hbar) * br2))
    assert errs[0] / errs[1] > 6.0 and errs[1] / errs[2] > 6.0


def test_energy_window_validation():
    with pytest.raises(ValueError):
        window_width(-0.1, 1.0, 0.05, 0.0)
    with pytest.raises(ValueError):
        window_width(0.1, -1.0, 0.05, 0.0)


def test_diffusion_report_csv(tmp_path):
    rows = [{"t": 0.0, "epsilon_predicted": 0.1},
            {"t": 1.0, "epsilon_predicted": 0.15, "epsilon_oracle": 0.16,
             "slope_ratio": 1.1}]
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_diffusion_report(pa, rows)
    write_diffusion_report(pb, rows)
    assert pa.read_bytes() == pb.read_bytes()
    lines = pa.read_text().splitlines()
    assert lines[0] == "t,epsilon_predicted,epsilon_oracle,slope_ratio"
    assert lines[1] == "0,0.1,,"
