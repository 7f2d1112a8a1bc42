from __future__ import annotations

import copy
import math
from dataclasses import replace

import pytest

from synchrony_lab import (
    INFINITE_SPEED,
    ClockLattice,
    NotSynchronized,
    UnresolvableChase,
    isotropy_scan,
    measure_one_way,
    measure_two_way,
    propagate,
    run_protocol,
    superluminal_transform,
)
from synchrony_lab.kinematics import frame_coeffs
from synchrony_lab.syncsim import (
    EINSTEIN,
    EXTERNAL_REGULATION,
    INSTANTANEOUS,
    LIGHT,
    SUPERLUMINAL,
    SUPERLUMINAL_FINITE,
    Scenario,
    ScenarioError,
    SignalSpec,
    parse_scenario,
    run_scenario,
)


def lattice(beta=0.6, positions=(0.0, 1.0)):
    return ClockLattice.build(beta, positions)


class TestBuild:
    def test_clocks_start_unsynchronized_at_their_positions(self):
        lat = lattice(positions=[0, 1.0, 2.5])
        assert lat.positions == (0.0, 1.0, 2.5)
        assert lat.offsets == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_positions_are_rejected(self, bad):
        for positions in ((0.0, bad), (bad, 0.0), (0.0, bad, 2.0)):
            with pytest.raises(ValueError, match="finite"):
                lattice(positions=positions)

    @pytest.mark.parametrize("positions", [(), (0.0,), (1.0, 0.0), (0.0, 1.0, 1.0)])
    def test_fewer_than_two_or_unordered_positions_are_rejected(self, positions):
        with pytest.raises(ValueError, match="at least two|strictly increasing"):
            lattice(positions=positions)


class TestNodeLookup:
    def test_node_is_its_index(self):
        lat = lattice(positions=(0.0, 1.0, 2.5))
        for i in range(len(lat.positions)):
            assert lat.index(i) == i

    @pytest.mark.parametrize("bad", [-1, 3, True, 1.0, "1", None])
    def test_out_of_range_or_non_integer_ids_are_rejected(self, bad):
        lat = lattice(positions=(0.0, 1.0, 2.5))
        with pytest.raises(ValueError, match="no node with id"):
            lat.index(bad)


class TestPropagate:
    def test_static_light_unit_gap(self):
        lat = lattice(beta=0.0)
        rec = propagate(lat, 0, 1, LIGHT)
        assert rec.absorb.t - rec.emit.t == 1.0
        assert rec.speed_abs == 1.0

    def test_drift_shortens_downwind_flight(self):
        # Hardware moves against the wind (+x signal meets its target).
        lat = lattice(beta=0.6)
        rec = propagate(lat, 0, 1, LIGHT)
        assert math.isclose(rec.absorb.t, 0.625, rel_tol=1e-12)

    def test_drift_lengthens_upwind_flight(self):
        lat = lattice(beta=0.6)
        rec = propagate(lat, 1, 0, LIGHT)
        assert math.isclose(rec.absorb.t, 2.5, rel_tol=1e-12)

    def test_light_record_is_null(self):
        lat = lattice(beta=0.37, positions=(0.0, 2.7))
        rec = propagate(lat, 0, 1, LIGHT)
        dt = rec.absorb.t - rec.emit.t
        dx = rec.absorb.x - rec.emit.x
        assert abs(rec.speed_abs) == 1.0
        assert abs(dx / dt) == 1.0  # exact for origin emission
        # Off-origin emissions re-round in the subtraction; stay within ulps.
        rec2 = propagate(lat, 0, 1, LIGHT, t_emit=1.3)
        ratio = (rec2.absorb.x - rec2.emit.x) / (rec2.absorb.t - rec2.emit.t)
        assert abs(abs(ratio) - 1.0) <= 1e-15

    def test_instantaneous_has_zero_absolute_delay(self):
        lat = lattice(beta=0.6)
        rec = propagate(lat, 0, 1, INSTANTANEOUS, t_emit=0.4)
        assert rec.absorb.t == rec.emit.t == 0.4
        assert math.isinf(rec.speed_abs)
        assert rec.absorb.x == lat.positions[1] + lat.frame.beta * 0.4

    def test_slow_signal_cannot_catch_receding_node(self):
        # Wind -0.6: hardware drifts at +0.6; a 0.3-speed chase fails.
        lat = lattice(beta=-0.6)
        with pytest.raises(UnresolvableChase):
            propagate(lat, 0, 1, SUPERLUMINAL_FINITE, speed=0.3)

    def test_fast_finite_signal_resolves_the_same_chase(self):
        lat = lattice(beta=-0.6)
        rec = propagate(lat, 0, 1, SUPERLUMINAL_FINITE, speed=3.0)
        assert math.isclose(rec.absorb.t, 1.0 / 2.4, rel_tol=1e-12)

    def test_finite_kind_requires_speed(self):
        with pytest.raises(ValueError):
            propagate(lattice(), 0, 1, SUPERLUMINAL_FINITE)

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            propagate(lattice(), 0, 0, LIGHT)

    def test_signals_are_logged_in_order(self):
        lat = lattice()
        propagate(lat, 0, 1, LIGHT)
        propagate(lat, 1, 0, INSTANTANEOUS)
        assert [r.kind for r in lat.log] == [LIGHT, INSTANTANEOUS]

    def test_causality_of_log(self):
        lat = lattice(beta=0.45, positions=(0.0, 1.0, 3.0))
        propagate(lat, 0, 2, LIGHT)
        propagate(lat, 2, 0, SUPERLUMINAL_FINITE, speed=5.0)
        propagate(lat, 0, 1, INSTANTANEOUS)
        for rec in lat.log:
            assert rec.absorb.t >= rec.emit.t
            assert (rec.absorb.t == rec.emit.t) == (rec.kind == INSTANTANEOUS)


class TestSignalLog:
    @pytest.mark.parametrize("kind", [LIGHT, SUPERLUMINAL_FINITE, INSTANTANEOUS])
    def test_propagate_returns_the_logged_row(self, kind):
        lat = lattice(positions=(0.0, 1.0, 2.5))
        first = propagate(lat, 0, 2, LIGHT)
        rec = propagate(lat, 2, 1, kind, speed=4.0, t_emit=0.3)
        assert rec == lat.log[-1] == lat.log[1]
        assert list(lat.log) == [first, rec]
        assert len(lat.log.rows) == 2
        assert (rec.kind, rec.emit.t, rec.emit.x, rec.absorb.t, rec.absorb.x,
                rec.speed_abs) == lat.log.rows[-1]

    # Hardware drifting at +0.6 through the absolute chart; coordinates near
    # the largest float overflow once the drift or the gap is added.
    FAILURES = [
        ((0, 1, SUPERLUMINAL_FINITE), {"speed": 0.3}, UnresolvableChase, "cannot reach"),
        ((0, 1, SUPERLUMINAL_FINITE), {}, ValueError, "positive finite speed"),
        ((0, 1, SUPERLUMINAL_FINITE), {"speed": math.nan}, ValueError, "positive finite speed"),
        ((0, 1, SUPERLUMINAL_FINITE), {"speed": math.inf}, ValueError, "positive finite speed"),
        ((0, 1, SUPERLUMINAL_FINITE), {"speed": 0.0}, ValueError, "positive finite speed"),
        ((0, 1, "carrier-pigeon"), {}, ValueError, "unknown signal kind"),
        ((0, 0, LIGHT), {}, ValueError, "endpoints must differ"),
        ((0, 3, LIGHT), {}, ValueError, "no node with id 3"),
        ((0, 2, LIGHT), {}, ValueError, "^event component t must be finite$"),
        ((0, 1, LIGHT), {"t_emit": math.inf}, ValueError, "^event component t must be finite$"),
        ((2, 1, LIGHT), {"t_emit": 1.7e308}, ValueError, "^event component x must be finite$"),
        ((0, 2, INSTANTANEOUS), {"t_emit": 1.7e308}, ValueError,
         "^event component x must be finite$"),
    ]

    @pytest.mark.parametrize("args, kwargs, error, message", FAILURES)
    def test_failed_signal_is_not_logged(self, args, kwargs, error, message):
        lat = lattice(beta=-0.6, positions=(-1e308, 0.0, 1e308))
        propagate(lat, 1, 0, LIGHT)
        with pytest.raises(error, match=message):
            propagate(lat, *args, **kwargs)
        assert len(lat.log.rows) == 1

    @pytest.mark.parametrize("protocol, rows", [
        (EINSTEIN, 2 * 4), (SUPERLUMINAL, 4), (EXTERNAL_REGULATION, 0),
    ])
    def test_each_protocol_run_starts_a_fresh_log(self, protocol, rows):
        lat = lattice(positions=(-1.5, 0.5, 2.0, 4.5, 7.25))
        for master in (0, 2):
            run_protocol(lat, protocol, master)
            assert len(lat.log.rows) == rows
            measure_two_way(lat, 0, 4)


class TestProtocols:
    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL, EXTERNAL_REGULATION])
    def test_rest_lattice_needs_no_correction(self, protocol):
        lat = lattice(beta=0.0, positions=(0.0, 1.0, 2.5))
        run_protocol(lat, protocol)
        assert lat.offsets == [0.0, 0.0, 0.0]
        assert lat.frame.k == 0.0

    def test_einstein_offsets_match_isotropic_chart(self):
        # Drift 0.6 (hardware at -0.6): the far clock is set ahead by
        # gamma * beta * L_rest / C = 1.25 * 0.6 * 1.25 ... computed 0.75.
        lat = lattice(beta=0.6)
        run_protocol(lat, EINSTEIN)
        assert lat.offsets[0] == 0.0
        assert math.isclose(lat.offsets[1], 0.75, rel_tol=1e-12)
        assert lat.frame.k == 0.0

    def test_superluminal_equalizes_readings_at_one_instant(self):
        lat = lattice(beta=0.6, positions=(0.0, 1.0, 2.0))
        run_protocol(lat, SUPERLUMINAL)
        readings = [lat.rate * 1.7 + offset for offset in lat.offsets]
        assert max(readings) - min(readings) == 0.0
        assert lat.frame.k == 0.6

    def test_external_regulation_equals_superluminal(self):
        a = lattice(beta=0.6, positions=(0.0, 1.0, 2.0))
        b = copy.deepcopy(a)
        run_protocol(a, SUPERLUMINAL)
        run_protocol(b, EXTERNAL_REGULATION)
        for na, nb in zip(a.offsets, b.offsets):
            assert abs(na - nb) <= 1e-9

    def test_master_choice_respected(self):
        lat = lattice(beta=0.3, positions=(0.0, 1.0, 2.0))
        run_protocol(lat, EINSTEIN, master=2)
        assert lat.offsets[2] == 0.0

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            run_protocol(lattice(), "gps")

    def test_protocol_marks_lattice_synced(self):
        lat = lattice()
        assert lat.protocol is None
        run_protocol(lat, EINSTEIN)
        assert lat.protocol == EINSTEIN

    def test_only_a_protocol_run_marks_a_lattice_synced(self):
        lat = lattice()
        with pytest.raises(TypeError):
            ClockLattice(lat.frame, lat.positions, protocol=EINSTEIN)


class TestMeasurements:
    def test_measurement_requires_synchronization(self):
        with pytest.raises(NotSynchronized):
            measure_one_way(lattice(), 0, 1)

    def test_rest_lattice_measures_c(self):
        lat = lattice(beta=0.0)
        run_protocol(lat, EINSTEIN)
        assert math.isclose(measure_one_way(lat, 0, 1).speed, 1.0, rel_tol=1e-12)

    def test_einstein_sync_measures_isotropic_light(self):
        lat = lattice(beta=0.6)
        run_protocol(lat, EINSTEIN)
        assert math.isclose(measure_one_way(lat, 0, 1).speed, 1.0, abs_tol=1e-9)
        assert math.isclose(measure_one_way(lat, 1, 0).speed, 1.0, abs_tol=1e-9)

    def test_superluminal_sync_measures_anisotropic_light(self):
        lat = lattice(beta=0.6)
        run_protocol(lat, SUPERLUMINAL)
        forward = measure_one_way(lat, 0, 1)
        backward = measure_one_way(lat, 1, 0)
        assert forward.direction == "+x"
        assert backward.direction == "-x"
        assert math.isclose(forward.speed, 2.5, abs_tol=1e-9)
        assert math.isclose(backward.speed, 0.625, abs_tol=1e-9)

    def test_distance_is_rest_length(self):
        lat = lattice(beta=0.6)
        run_protocol(lat, SUPERLUMINAL)
        assert math.isclose(measure_one_way(lat, 0, 1).distance, 1.25, rel_tol=1e-12)

    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL, EXTERNAL_REGULATION])
    @pytest.mark.parametrize("beta", [-0.9, -0.6, 0.0, 0.6, 0.9])
    def test_two_way_speed_is_universal(self, protocol, beta):
        lat = lattice(beta=beta)
        run_protocol(lat, protocol)
        m = measure_two_way(lat, 0, 1)
        assert m.direction == "two-way"
        assert math.isclose(m.speed, 1.0, abs_tol=1e-9)

    def test_instantaneous_signal_measures_infinite_after_zero_delay_sync(self):
        lat = lattice(beta=0.6)
        run_protocol(lat, SUPERLUMINAL)
        m = measure_one_way(lat, 0, 1, INSTANTANEOUS)
        assert m.speed == INFINITE_SPEED
        assert m.elapsed == 0.0

    def test_instantaneous_signal_is_finite_under_einstein_sync(self):
        # The isotropic convention skews distant clocks, so a zero-delay
        # signal picks up apparent flight time gamma*beta*L_rest.
        lat = lattice(beta=0.6)
        run_protocol(lat, EINSTEIN)
        m = measure_one_way(lat, 0, 1, INSTANTANEOUS)
        assert math.isclose(m.speed, 1.25 / 0.75, rel_tol=1e-12)

    def test_measurement_signals_are_logged(self):
        lat = lattice()
        run_protocol(lat, SUPERLUMINAL)
        n = len(lat.log)
        measure_one_way(lat, 0, 1)
        assert len(lat.log) == n + 1
        measure_two_way(lat, 0, 1)
        assert len(lat.log) == n + 3


class TestChartConsistency:
    def test_equal_readings_lie_on_constant_time_surfaces(self):
        beta = 0.6
        lat = lattice(beta=beta, positions=(0.0, 1.0, 3.0))
        run_protocol(lat, SUPERLUMINAL)
        # Pick the absolute instants where each clock reads 2.0.
        instants = [(2.0 - offset) / lat.rate for offset in lat.offsets]
        events = [
            superluminal_transform(
                type(lat.log[0].emit)(t=t, x=lat.positions[i] + lat.frame.beta * t, chart="S"),
                beta,
            )
            for i, t in enumerate(instants)
        ]
        times = [e.t for e in events]
        assert max(times) - min(times) <= 1e-9

    MASTER = 1
    POSITIONS = (-1.5, 0.5, 2.0, 4.5)

    @staticmethod
    def chart_misses(lat, master, frame):
        """Count protocol signals whose absorb event misses the receiver in ``frame``'s chart.

        The absorb event is mapped from the absolute chart through
        ``frame_coeffs(frame)``.  In the lattice's own chart t' less the
        master's term a_tx*positions[master] must be the receiver's clock
        reading rate*t + offsets[r], and x' must be the receiver's rest
        position gamma*positions[r], gamma = 1/rate.
        """
        coeffs = frame_coeffs(frame)
        gamma = 1.0 / lat.rate
        slaves = [i for i in range(len(lat.positions)) if i != master]
        if lat.protocol == EINSTEIN:
            receivers = [r for i in slaves for r in (i, master)]  # out, then back
        else:
            receivers = slaves
        assert len(lat.log) == len(receivers)
        master_term = coeffs.a_tx * lat.positions[master]
        misses = 0
        for rec, r in zip(lat.log, receivers):
            image = coeffs.apply(rec.absorb)
            reading = lat.rate * rec.absorb.t + lat.offsets[r]
            t_ok = math.isclose(image.t - master_term, reading, rel_tol=0.0, abs_tol=1e-9)
            x_ok = math.isclose(image.x, gamma * lat.positions[r],
                                rel_tol=0.0, abs_tol=1e-9)
            misses += not (t_ok and x_ok)
        return misses

    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL])
    @pytest.mark.parametrize("drift", [0.6, -0.6, 0.8, -0.8, 0.9, -0.9])
    def test_absorb_events_land_on_receiver_readings(self, protocol, drift):
        lat = lattice(beta=drift, positions=self.POSITIONS)
        run_protocol(lat, protocol, master=self.MASTER)
        assert self.chart_misses(lat, self.MASTER, lat.frame) == 0

    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL])
    @pytest.mark.parametrize("drift", [0.6, -0.6, 0.8, -0.8, 0.9, -0.9])
    def test_flipped_velocity_sign_is_caught(self, protocol, drift):
        lat = lattice(beta=drift, positions=self.POSITIONS)
        run_protocol(lat, protocol, master=self.MASTER)
        flipped = replace(lat.frame, beta=-lat.frame.beta)
        assert self.chart_misses(lat, self.MASTER, flipped) == len(lat.log)


class TestIsotropyScan:
    def test_rest_frame_is_isotropic(self):
        (point,) = isotropy_scan([0.0])
        assert point.anisotropy == 0.0

    def test_matches_closed_form(self):
        betas = [-0.9 + 0.1 * i for i in range(19)]
        for point in isotropy_scan(betas):
            expected = 2.0 * point.beta / (1.0 - point.beta**2)
            assert math.isclose(point.anisotropy, expected, abs_tol=1e-9)

    def test_argmin_locates_the_isotropy_frame(self):
        betas = [-0.9 + 0.1 * i for i in range(19)]
        points = isotropy_scan(betas)
        best = min(points, key=lambda p: abs(p.anisotropy))
        assert abs(best.beta) < 1e-12


class TestScenario:
    def good(self):
        return {
            "beta": 0.6,
            "node_positions": [0.0, 1.0],
            "protocol": "superluminal",
            "signals": [
                {"from": 0, "to": 1, "kind": "light"},
                {"from": 1, "to": 0, "kind": "light"},
                {"from": 0, "to": 1, "kind": "light", "two_way": True},
            ],
        }

    def test_round_trip(self):
        sc = parse_scenario(self.good())
        assert sc == Scenario(
            0.6, (0.0, 1.0), "superluminal",
            (
                SignalSpec(0, 1, "light"),
                SignalSpec(1, 0, "light"),
                SignalSpec(0, 1, "light", two_way=True),
            ),
        )

    @pytest.mark.parametrize(
        "patch, invariant",
        [
            ({"beta": 1.0}, "abs_beta_lt_1"),
            ({"beta": "fast"}, "must_be_number"),
            ({"node_positions": [0.0]}, "at_least_two_nodes"),
            ({"node_positions": [1.0, 0.0]}, "strictly_increasing_positions"),
            ({"protocol": "ntp"}, "known_protocol"),
            ({"signals": [{"from": 0, "to": 0}]}, "signal_endpoints"),
            ({"signals": [{"from": 0, "to": 1, "kind": "carrier-pigeon"}]},
             "known_signal_kind"),
            ({"signals": [{"from": 0.9, "to": 1.2}]}, "signal_endpoints"),
            ({"signals": [{"from": False, "to": True}]}, "signal_endpoints"),
            ({"signals": [{"from": 0, "to": 1, "two_way": "no"}]}, "two_way_boolean"),
            ({"signals": [{"from": 0, "to": 1, "speed": True}]}, "positive_signal_speed"),
            ({"signals": [{"from": 0, "to": 1, "kind": "superluminal-finite"}]},
             "positive_signal_speed"),
            ({"signals": [{"from": 0, "to": 1, "kind": "superluminal-finite",
                           "speed": math.nan}]}, "positive_signal_speed"),
            ({"signals": [{"from": 0, "to": 1, "kind": "superluminal-finite",
                           "speed": math.inf}]}, "positive_signal_speed"),
            # JSON integers too large for a float.
            ({"beta": -10**400}, "abs_beta_lt_1"),
            ({"node_positions": [0.0, 10**400]}, "positions_finite_numbers"),
            ({"signals": [{"from": 0, "to": 1, "kind": "superluminal-finite",
                           "speed": 10**400}]}, "positive_signal_speed"),
            # Misspelled keys, which would otherwise be ignored.
            ({"signal": []}, "known_field"),
            ({"signals": [{"from": 0, "to": 1, "two-way": True}]}, "known_field"),
            ({"signals": [{"from": 0, "to": 1, "Speed": 3.0}]}, "known_field"),
        ],
    )
    def test_violations_name_the_invariant(self, patch, invariant):
        raw = self.good()
        raw.update(patch)
        with pytest.raises(ScenarioError) as err:
            parse_scenario(raw)
        assert err.value.invariant == invariant

    def test_run_scenario_report(self):
        lattice, results = run_scenario(parse_scenario(self.good()))
        assert lattice.protocol == "superluminal"
        assert lattice.frame.k == 0.6
        assert [round(m.speed, 9) for m in results] == [
            2.5, 0.625, 1.0,
        ]

    def test_protocol_override(self):
        lattice, results = run_scenario(parse_scenario(self.good()), protocol="einstein")
        assert lattice.protocol == "einstein"
        assert math.isclose(results[0].speed, 1.0, abs_tol=1e-9)
