from __future__ import annotations

import copy
import math
import random
import re
from decimal import Context, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from conftest import lattice_scan, oracle_gamma, oracle_scan_speeds

from synchrony_lab import (
    INFINITE_SPEED,
    ClockLattice,
    Event,
    FrameSpec,
    NotSynchronized,
    UnresolvableChase,
    errors,
    eta,
    isotropy_scan,
    measure_one_way,
    measure_two_way,
    propagate,
    run_protocol,
    superluminal_transform,
    syncsim,
)
from synchrony_lab.kinematics import _eta, frame_coeffs
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
    _rate,
    load_scenario,
    parse_scenario,
    run_scenario,
)

SCENARIO_REST = Path(__file__).parent / "data" / "scenario_rest.json"


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

    @pytest.mark.parametrize("drift, positions, error, message", [
        (0.6, ["0", True, "2.5"], TypeError, "^node positions must be int or float, not str$"),
        (0.6, [0, True, 2.5], TypeError, "^node positions must be int or float, not bool$"),
        (0.6, [0.0, None], TypeError, "^node positions must be int or float, not NoneType$"),
        (0.5, [0.0, 10**400], ValueError, "^node positions must be finite$"),
        (True, [0.0, 1.0], TypeError, "^drift must be int or float, not bool$"),
        ("0.5", [0.0, 1.0], TypeError, "^drift must be int or float, not str$"),
        (10**400, [0.0, 1.0], ValueError, "^drift must be finite$"),
    ], ids=["strings-and-bool", "bool", "none", "int-past-float-range",
            "bool-drift", "string-drift", "int-drift-past-float-range"])
    def test_bools_non_numbers_and_huge_ints_are_refused(self, drift, positions, error, message):
        with pytest.raises(error, match=message):
            ClockLattice.build(drift, positions)

    @pytest.mark.parametrize("drift", [1.5, -1.5, 1.0, math.nan])
    def test_a_drift_out_of_range_is_named_as_given(self, drift):
        message = f"^boost velocity must satisfy \\|beta\\| < 1, got {drift!r}$"
        with pytest.raises(ValueError, match=message):
            ClockLattice.build(drift, [0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            isotropy_scan([0.3, drift])

    def test_an_int_that_rounds_onto_its_neighbour_is_not_strictly_increasing(self):
        # 2**53 + 1 compares above the float 2.0**53, but it is kept as 2.0**53.
        with pytest.raises(ValueError, match="^node positions must be strictly increasing$"):
            ClockLattice.build(0.6, [0.0, 2.0**53, 2**53 + 1])

    def test_positions_are_fixed_when_the_lattice_is_built(self):
        lat = ClockLattice.build(0.6, [0.0, 1.0, 2.0])
        for positions in ((0.0, 1.0, 10**400), (2.0, 1.0, 0.0)):
            with pytest.raises(AttributeError):
                lat.positions = positions
            assert lat.positions == (0.0, 1.0, 2.0)

    def test_protocol_state_is_set_only_by_a_protocol_run(self):
        fresh = lattice(positions=(0.0, 1.0, 2.0))
        synced = run_protocol(lattice(positions=(0.0, 1.0, 2.0)), EINSTEIN)
        for lat in (fresh, synced):
            state = (lat.frame, lat.offsets, lat.log, lat.protocol)
            for name, value in (("frame", "lab"), ("offsets", [0.0]), ("log", []),
                                ("protocol", SUPERLUMINAL)):
                with pytest.raises(AttributeError):
                    setattr(lat, name, value)
            assert (lat.frame, lat.offsets, lat.log, lat.protocol) == state
        with pytest.raises(NotSynchronized):
            measure_one_way(fresh, 0, 2)
        assert math.isclose(measure_one_way(synced, 0, 2).speed, 1.0, rel_tol=1e-12)
        assert run_protocol(fresh, SUPERLUMINAL).frame.k == 0.6

    def test_the_offsets_and_log_read_are_copies(self):
        lat = run_protocol(lattice(positions=(0.0, 1.0, 2.5)), EINSTEIN)
        twin = run_protocol(lattice(positions=(0.0, 1.0, 2.5)), EINSTEIN)
        for change in (lambda xs: xs.__setitem__(-1, math.nan), list.clear):
            change(lat.offsets)
            change(lat.log)
        assert (lat.offsets, lat.log) == (twin.offsets, twin.log)
        assert measure_one_way(lat, 0, 2) == measure_one_way(twin, 0, 2)
        assert lat.log == twin.log

    def test_ints_and_any_iterable_build_float_positions(self):
        lat = ClockLattice.build(0, iter([0, 2**60, 2**61]))
        assert lat.positions == (0.0, 2.0**60, 2.0**61)
        assert list(map(type, lat.positions)) == [float] * 3
        assert lat.frame.beta == 0.0 and type(lat.frame.beta) is float


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
        assert [kind for kind, *_ in lat.log] == [LIGHT, INSTANTANEOUS]

    def test_causality_of_log(self):
        lat = lattice(beta=0.45, positions=(0.0, 1.0, 3.0))
        propagate(lat, 0, 2, LIGHT)
        propagate(lat, 2, 0, SUPERLUMINAL_FINITE, speed=5.0)
        propagate(lat, 0, 1, INSTANTANEOUS)
        for kind, emit_t, _, absorb_t, _, _ in lat.log:
            assert absorb_t >= emit_t
            assert (absorb_t == emit_t) == (kind == INSTANTANEOUS)


class TestSignalLog:
    @pytest.mark.parametrize("kind", [LIGHT, SUPERLUMINAL_FINITE, INSTANTANEOUS])
    def test_propagate_returns_the_logged_row(self, kind):
        lat = lattice(positions=(0.0, 1.0, 2.5))
        first = propagate(lat, 0, 2, LIGHT)
        rec = propagate(lat, 2, 1, kind, speed=4.0, t_emit=0.3)
        assert len(lat.log) == 2
        for record, row in zip((first, rec), lat.log):
            assert (record.kind, record.emit.t, record.emit.x, record.absorb.t,
                    record.absorb.x, record.speed_abs) == row
            assert record.emit == Event(*row[1:3]) and record.absorb == Event(*row[3:5])

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
    ] + [
        ((1, 0, LIGHT), {"t_emit": t_emit}, ValueError,
         "^t_emit must be an int or float that a float can hold$")
        for t_emit in (True, False, 10**400, -(10**400), 2**1024, "a", None, 1j, [0.0])
    ] + [
        ((0, 1, SUPERLUMINAL_FINITE), {"speed": speed}, ValueError,
         "^superluminal-finite signals need a positive finite speed$")
        for speed in (True, "3", 3 + 0j, 10**400)
    ]

    @pytest.mark.parametrize("args, kwargs, error, message", FAILURES)
    def test_failed_signal_is_not_logged(self, args, kwargs, error, message):
        lat = lattice(beta=-0.6, positions=(-1e308, 0.0, 1e308))
        propagate(lat, 1, 0, LIGHT)
        with pytest.raises(error, match=message):
            propagate(lat, *args, **kwargs)
        assert len(lat.log) == 1

    @pytest.mark.parametrize("t_emit", [3, 2**1023, 0.25], ids=["3", "2**1023", "0.25"])
    def test_rows_hold_float_emission_times(self, t_emit):
        lat = lattice()
        rec = propagate(lat, 0, 1, INSTANTANEOUS, t_emit=t_emit)
        assert type(lat.log[-1][1]) is float and type(rec.emit.t) is float
        assert lat.log[-1][1] == t_emit

    # At drift 0 every coordinate is finite, but t_emit + x_emit + t_abs +
    # x_abs is 2**1024, past the largest float: the signal is still logged.
    @pytest.mark.parametrize("from_id, to_id, kind, row", [
        (0, 1, LIGHT, (LIGHT, 2.0**1023, 0.0, 2.0**1023, 1.0, 1.0)),
        (1, 0, INSTANTANEOUS, (INSTANTANEOUS, 2.0**1023, 1.0, 2.0**1023, 0.0, -math.inf)),
    ])
    def test_finite_coordinates_whose_sum_overflows_are_logged(self, from_id, to_id, kind, row):
        lat = lattice(beta=0.0)
        rec = propagate(lat, from_id, to_id, kind, t_emit=2**1023)
        assert lat.log == [row]
        assert (rec.emit, rec.absorb) == (Event(*row[1:3]), Event(*row[3:5]))

    @pytest.mark.parametrize("protocol, rows", [
        (EINSTEIN, 2 * 4), (SUPERLUMINAL, 4), (EXTERNAL_REGULATION, 0),
    ])
    def test_each_protocol_run_starts_a_fresh_log(self, protocol, rows):
        lat = lattice(positions=(-1.5, 0.5, 2.0, 4.5, 7.25))
        for master in (0, 2):
            run_protocol(lat, protocol, master)
            assert len(lat.log) == rows
            measure_two_way(lat, 0, 4)


class TestCheckOrder:
    """The first rule an input breaks names the error, whichever others it breaks."""

    BAD_KIND = "unknown signal kind 'carrier-pigeon'"
    SAME_ENDS = "signal endpoints must differ"
    NO_SPEED = "superluminal-finite signals need a positive finite speed"
    # (from_id, to_id, kind, speed, first error message)
    CASES = [
        (0, 0, "carrier-pigeon", None, BAD_KIND),
        (-1, 7, "carrier-pigeon", None, BAD_KIND),
        (5, 5, LIGHT, None, SAME_ENDS),
        (True, True, SUPERLUMINAL_FINITE, None, SAME_ENDS),
        (-1, 7, LIGHT, None, "no node with id -1"),
        (0, 7, SUPERLUMINAL_FINITE, None, "no node with id 7"),
        (1.0, 0, SUPERLUMINAL_FINITE, math.nan, "no node with id 1.0"),
        (0, 1, SUPERLUMINAL_FINITE, 0.0, NO_SPEED),
        # Light and instantaneous signals do not use a speed, but a given one
        # must be valid, as parse_scenario requires of scenario files.
        (0, 1, LIGHT, -5.0, "light signals need a positive finite speed"),
        (0, 1, LIGHT, "junk", "light signals need a positive finite speed"),
        (0, 1, INSTANTANEOUS, math.inf, "instantaneous signals need a positive finite speed"),
        (0, 1, INSTANTANEOUS, True, "instantaneous signals need a positive finite speed"),
    ]

    @pytest.mark.parametrize("from_id, to_id, kind, speed, message", CASES)
    @pytest.mark.parametrize("send", [propagate, measure_one_way, measure_two_way])
    def test_first_broken_rule_is_reported(self, send, from_id, to_id, kind, speed, message):
        lat = lattice(positions=(0.0, 1.0, 2.5))
        run_protocol(lat, SUPERLUMINAL)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            send(lat, from_id, to_id, kind, speed=speed)
        assert len(lat.log) == 2

    @pytest.mark.parametrize("kind", [LIGHT, INSTANTANEOUS])
    def test_a_valid_speed_leaves_light_and_instantaneous_signals_alone(self, kind):
        runs = []
        for speed in (None, 4.0, 0.5):
            lat = lattice(positions=(0.0, 1.0, 2.5))
            run_protocol(lat, SUPERLUMINAL)
            runs.append((propagate(lat, 2, 0, kind, speed=speed, t_emit=0.3),
                         measure_one_way(lat, 0, 2, kind, speed=speed),
                         measure_two_way(lat, 2, 1, kind, speed=speed), list(lat.log)))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_a_bad_speed_is_reported_before_a_non_finite_event(self):
        lat = lattice()
        with pytest.raises(ValueError, match=f"^{re.escape(self.NO_SPEED)}$"):
            propagate(lat, 0, 1, SUPERLUMINAL_FINITE, t_emit=math.inf)
        assert len(lat.log) == 0

    @pytest.mark.parametrize("measure", [measure_one_way, measure_two_way])
    def test_measurements_check_synchronization_first(self, measure):
        for from_id, to_id, kind, speed, _ in self.CASES:
            with pytest.raises(NotSynchronized):
                measure(lattice(), from_id, to_id, kind, speed=speed)


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
        lat = lattice()
        run_protocol(lat, SUPERLUMINAL)
        for protocol, master in (("gps", 0), (EINSTEIN, 2)):  # raise before the reset
            with pytest.raises(ValueError):
                run_protocol(lat, protocol, master)
            assert (lat.protocol, lat.frame.k, len(lat.log)) == (SUPERLUMINAL, 0.6, 1)

    def test_protocol_marks_lattice_synced(self):
        lat = lattice()
        assert lat.protocol is None
        run_protocol(lat, EINSTEIN)
        assert lat.protocol == EINSTEIN

    def test_a_failed_run_leaves_the_lattice_unsynchronized(self, monkeypatch):
        # The left side is inside the exchange's bound, so its rows are
        # deferred; the refused right side logs its out leg to x = 1e308, and
        # the return leg overflows.  The log keeps both sides' rows in send order.
        lat = lattice(beta=0.6, positions=(0.0, 1.0, 1e308))
        run_protocol(lat, SUPERLUMINAL, master=1)
        with pytest.raises(ValueError, match="^event component t must be finite$"):
            run_protocol(lat, EINSTEIN, master=1)
        assert lat.protocol is None
        assert lat.frame.k == 0.0
        assert lat.offsets == [0.0, 0.0, 0.0]
        ref = lattice(beta=0.6, positions=(0.0, 1.0, 1e308))
        propagate(ref, 0, 1, LIGHT, t_emit=propagate(ref, 1, 0, LIGHT).absorb.t)
        propagate(ref, 1, 2, LIGHT)
        assert len(ref.log) == 3
        assert list(map(repr, lat.log)) == list(map(repr, ref.log))
        with pytest.raises(NotSynchronized):
            measure_one_way(lat, 0, 1)

        # A zero-delay signal cannot fail, so fail the exchange by hand after
        # its first row, whether that row was logged or deferred (reading the
        # log builds it in the list the exchange wrote): the run must not
        # leave its realized k = 0.6 behind.
        def fails_after_one_row(rows, *args):
            exchange(rows, *args)
            rows[:] = lat.log[:1]
            raise UnresolvableChase("second signal")

        exchange = syncsim._exchange
        monkeypatch.setattr(syncsim, "_exchange", fails_after_one_row)
        with pytest.raises(UnresolvableChase):
            run_protocol(lat, SUPERLUMINAL, master=1)
        assert (lat.protocol, lat.frame.k, lat.offsets, len(lat.log)) == (None, 0.0, [0.0] * 3, 1)

    @pytest.mark.parametrize("drift, protocol, positions, master, calls, deferred", [
        # Three slaves: two legs each under Einstein, one under superluminal.
        *(pytest.param(drift, protocol, (0.0, 1.0, 2.5, 4.0), 1, 0,
                       6 if protocol == EINSTEIN else 3, id=f"{drift}-{protocol}")
          for drift in (0.6, -0.6) for protocol in (EINSTEIN, SUPERLUMINAL)),
        # Every slave passes its own checks, but 6B + 3X overflows the bound.
        pytest.param(0.0, EINSTEIN, (0.0, 1e307, 2e307), 0, 4, 0, id="refused"),
    ])
    def test_an_ordered_lattice_is_synchronized_without_the_kernel(self, monkeypatch, drift,
                                                                   protocol, positions, master,
                                                                   calls, deferred):
        """Only a refused light side goes through ``_signal`` in the run; every other row comes
        from it on the first read of the log, one call per row."""
        seen = []

        def kernel(*args):
            seen.append(args)
            return signal(*args)

        signal = syncsim._signal
        monkeypatch.setattr(syncsim, "_signal", kernel)
        lat = run_protocol(lattice(beta=drift, positions=positions), protocol, master)
        assert len(seen) == calls
        log = lat.log
        assert len(seen) == calls + deferred == len(log)
        ref, offsets, _ = TestProtocolReplay.replay(drift, positions, protocol, master)
        assert list(map(repr, log)) == list(map(repr, ref.log))
        assert list(map(repr, lat.offsets)) == list(map(repr, offsets))

    def test_only_a_protocol_run_marks_a_lattice_synced(self):
        lat = lattice()
        with pytest.raises(TypeError):
            ClockLattice(lat.frame, lat.positions, protocol=EINSTEIN)

    def test_a_lattice_frame_must_be_a_frame_spec(self):
        with pytest.raises(TypeError, match="^lattice frame must be a FrameSpec, not str$"):
            ClockLattice("lab", (0.0, 1.0))

    def test_a_new_lattice_is_not_synchronized(self):
        synced = run_protocol(lattice(), SUPERLUMINAL, 0).frame
        for frame in (FrameSpec(-0.6, 0.3, "lab"), synced):
            with pytest.raises(ValueError, match="^a new lattice's frame must have k = 0, got "):
                ClockLattice(frame, (0.0, 1.0))
        lat = ClockLattice(FrameSpec(-0.6, -0.0, "lab"), (0.0, 1.0))
        assert lat.frame.k == 0.0 and lat.protocol is None


class TestProtocolReplay:
    """``run_protocol``'s signals, replayed one by one through public ``propagate``."""

    N = 300

    @classmethod
    def replay(cls, drift, positions, protocol, master):
        """Rows and offsets of the protocol's exchange, sent through :func:`propagate`."""
        ref = ClockLattice.build(drift, positions)
        return (ref, *cls.replay_into(ref, protocol, master))

    @staticmethod
    def replay_into(ref, protocol, master):
        """Offsets and (sender, receiver) legs of the exchange, sent into ``ref``'s log."""
        positions, rate, t0 = ref.positions, ref.rate, 0.0
        offsets, legs = [0.0] * len(positions), []
        for i in range(len(positions)):
            if i == master:
                continue
            if protocol == EINSTEIN:
                out = propagate(ref, master, i, LIGHT, t_emit=t0)
                back = propagate(ref, i, master, LIGHT, t_emit=out.absorb.t)
                offsets[i] = 0.5 * (rate * t0 + rate * back.absorb.t) - rate * out.absorb.t
                legs += [(master, i), (i, master)]
            else:
                offsets[i] = rate * t0 - rate * propagate(ref, master, i, INSTANTANEOUS).absorb.t
                legs.append((master, i))
        return offsets, legs

    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL])
    @pytest.mark.parametrize("master", [0, N // 2, N - 1])
    @pytest.mark.parametrize("drift", [0.6, -0.8])
    def test_rows_and_offsets_match_a_propagate_replay(self, protocol, master, drift):
        rng = random.Random(self.N)
        positions = [0.0]
        for _ in range(self.N - 1):
            positions.append(positions[-1] + rng.uniform(0.5, 1.5))
        lat = ClockLattice.build(drift, positions)
        run_protocol(lat, protocol, master)
        ref, offsets, legs = self.replay(drift, positions, protocol, master)
        assert list(map(repr, lat.log)) == list(map(repr, ref.log))
        assert list(map(repr, lat.offsets)) == list(map(repr, offsets))
        # Both ends of every signal lie on their clocks' worldlines x = x_i + u*t.
        u = ref.frame.beta
        for (i, j), (_, emit_t, emit_x, absorb_t, absorb_x, _) in zip(legs, ref.log):
            assert math.isclose(emit_x, ref.positions[i] + u * emit_t, rel_tol=0.0, abs_tol=1e-9)
            assert math.isclose(absorb_x, ref.positions[j] + u * absorb_t, rel_tol=0.0,
                                abs_tol=1e-9)

    @pytest.mark.parametrize("protocol", [EINSTEIN, SUPERLUMINAL])
    def test_the_log_is_the_same_whenever_it_is_first_read(self, protocol):
        """Exchange rows built on a later first read of ``log`` still precede the measurements'."""
        drift, positions, master = -0.6, (-3.0, -1.0, 0.0, 0.5, 2.0, 4.5, 7.0), 3
        measurements = [(0, 6, LIGHT, False), (5, 1, LIGHT, True), (2, 4, INSTANTANEOUS, False)]
        early, late = (run_protocol(ClockLattice.build(drift, positions), protocol, master)
                       for _ in range(2))
        ref = self.replay(drift, positions, protocol, master)[0]
        assert list(map(repr, early.log)) == list(map(repr, ref.log))
        for i, j, kind, two_way in measurements:
            for lat in (early, late):
                (measure_two_way if two_way else measure_one_way)(lat, i, j, kind)
            out = propagate(ref, i, j, kind)
            if two_way:
                propagate(ref, j, i, kind, t_emit=out.absorb.t)
            assert list(map(repr, early.log)) == list(map(repr, ref.log))
        unread = copy.deepcopy(late)
        assert list(map(repr, late.log)) == list(map(repr, ref.log))
        assert list(map(repr, unread.log)) == list(map(repr, ref.log))

    @staticmethod
    def outcome(drift, positions, run):
        """``run``'s offsets or error, and its log, on a fresh lattice."""
        lat = ClockLattice.build(drift, positions)
        try:
            result = list(map(repr, run(lat)))
        except (ValueError, errors.SynchronyError) as exc:
            result = (type(exc), str(exc))
            assert (lat.protocol, lat.offsets) == (None, [0.0] * len(positions))
        return result, list(map(repr, lat.log))

    # Sorted distinct floats reach spans near 1e308 and subnormal gaps;
    # cumulative gaps give longer lattices that synchronize.
    lattices = st.one_of(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6,
                 unique=True).map(sorted),
        st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=12).map(
            lambda gaps: [sum(gaps[:i]) for i in range(len(gaps) + 1)]),
    )
    drifts = st.one_of(
        st.sampled_from([0.0, -0.0, math.nextafter(1.0, 0.0), -math.nextafter(1.0, 0.0),
                         1.0 - 1e-9, -(1.0 - 1e-9)]),
        st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    )

    @given(drift=drifts, positions=lattices, protocol=st.sampled_from([EINSTEIN, SUPERLUMINAL]),
           where=st.sampled_from(["first", "middle", "last"]))
    # The return leg from 1e308 overflows; the light chase of a subnormal gap
    # underflows to dt = 0; finite coordinates whose sum overflows are logged.
    @example(drift=0.6, positions=[0.0, 1e308], protocol=EINSTEIN, where="first")
    @example(drift=-0.6, positions=[-1e308, 0.0, 1e308], protocol=EINSTEIN, where="middle")
    @example(drift=math.nextafter(1.0, 0.0), positions=[0.0, 5e-324], protocol=EINSTEIN,
             where="first")
    @example(drift=0.0, positions=[1e308, 1.7e308], protocol=SUPERLUMINAL, where="first")
    @example(drift=0.0, positions=[0.0, 1.7e308], protocol=EINSTEIN, where="last")
    # -0.0 under u = -drift > 0 logs the float 0.0.
    @example(drift=-0.6, positions=[-0.0, 1.0], protocol=SUPERLUMINAL, where="last")
    # Finite positions whose sum overflows, on either side of the master.
    @example(drift=0.6, positions=[0.0, 1e308, 1.5e308], protocol=SUPERLUMINAL, where="first")
    @example(drift=0.6, positions=[-1.5e308, -1e308, 0.0], protocol=SUPERLUMINAL, where="last")
    # A light side is bounded from its nearest and farthest slaves.  Only the
    # nearest slave's chase underflows here, so the two must not be swapped.
    @example(drift=math.nextafter(1.0, 0.0), positions=[0.0, 5e-324, 1.0], protocol=EINSTEIN,
             where="first")
    # The left side passes the bound; the right side, whose chase is slow at
    # |u| = 0.99, does not, and its slave's absorb time overflows.
    @example(drift=-0.99, positions=[-1.0, 0.0, 1.0, 2e306], protocol=EINSTEIN, where="middle")
    # The bound refuses this side, but each slave passes its own check.
    @example(drift=0.0, positions=[0.0, 1e307, 2e307], protocol=EINSTEIN, where="first")
    def test_any_lattice_matches_a_propagate_replay(self, drift, positions, protocol, where):
        """Same log, and offsets or error; a zero-delay exchange never fails."""
        n = len(positions)
        master = {"first": 0, "middle": n // 2, "last": n - 1}[where]
        got = self.outcome(drift, positions,
                           lambda lat: run_protocol(lat, protocol, master).offsets)
        want = self.outcome(drift, positions,
                            lambda ref: self.replay_into(ref, protocol, master)[0])
        assert got == want
        if protocol == SUPERLUMINAL:
            assert type(got[0]) is list and len(got[1]) == n - 1


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
                Event(t=t, x=lat.positions[i] + lat.frame.beta * t, chart="S"),
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
        for (_, _, _, absorb_t, absorb_x, _), r in zip(lat.log, receivers):
            image = coeffs.apply(Event(absorb_t, absorb_x))
            reading = lat.rate * absorb_t + lat.offsets[r]
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
        flipped = FrameSpec(-lat.frame.beta, lat.frame.k, lat.frame.label)
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

    def test_matches_the_lattice_path_bit_for_bit(self):
        rng = random.Random(2002)
        edge = [1.0 - 10.0**-j for j in range(1, 13)] + [math.nextafter(1.0, 0.0)]
        betas = [0.0, *edge, *(rng.uniform(-0.999, 0.999) for _ in range(300))]
        betas += [-b for b in betas]
        assert list(map(repr, isotropy_scan(betas))) == list(map(repr, lattice_scan(betas)))

    @pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, -7.0, math.inf, -math.inf, math.nan, "x",
                                     "0.5", True, False, None,
                                     pytest.param(10**400, id="10**400")])
    def test_rejects_like_the_lattice_path(self, bad):
        def outcome(scan):
            with pytest.raises((ValueError, TypeError)) as info:
                scan([0.3, bad, 0.2])
            return type(info.value), str(info.value)

        assert outcome(isotropy_scan) == outcome(lattice_scan)


    @pytest.mark.parametrize("bad, error, message", [
        ("0.5", TypeError, "^drift must be int or float, not str$"),
        (False, TypeError, "^drift must be int or float, not bool$"),
        (True, TypeError, "^drift must be int or float, not bool$"),
        (10**400, ValueError, "^drift must be finite$"),
    ], ids=["numeric-string", "false", "true", "int-past-float-range"])
    def test_bools_strings_and_huge_ints_are_refused_not_coerced(self, bad, error, message):
        with pytest.raises(error, match=message):
            isotropy_scan([0.3, 0.2, bad])

    def test_ints_scan_as_floats(self):
        assert repr(isotropy_scan([0])) == repr(isotropy_scan([0.0]))


class TestDigitsNearTheSpeedOfLight:
    """Gamma, the clock rate, rest lengths and scan speeds against 50-digit oracles."""

    # |beta| = 1 - 10^-j on both sides, where 1 - beta*beta loses up to 2e6
    # ulps, and a mid-range sample, where the digits must not be traded away.
    EDGE = [sign * (1.0 - 10.0**-j) for j in range(1, 13) for sign in (1.0, -1.0)]
    MID = [random.Random(16).uniform(-0.9, 0.9) for _ in range(200)]
    # The scan speeds compound about eight roundings; 20000 mid-range draws
    # reached 4.2 ulps, and gamma, the rate and rest lengths 2.
    ULPS = 5

    @pytest.mark.parametrize("betas", [EDGE, MID], ids=["edge", "mid"])
    def test_within_a_few_ulps_of_the_oracles(self, betas):
        for beta in betas:
            lat = run_protocol(ClockLattice.build(beta, (0.0, 2.5)), EINSTEIN)
            point = isotropy_scan([beta])[0]
            c_plus, c_minus = oracle_scan_speeds(beta)
            with localcontext(Context(prec=50)):
                gamma = oracle_gamma(beta)
                pairs = [(eta(beta, 0.0), gamma), (lat.rate, 1 / gamma),
                         (measure_one_way(lat, 0, 1).distance, Decimal(2.5) * gamma),
                         (point.c_plus, c_plus), (point.c_minus, c_minus)]
                for got, want in pairs:
                    error = abs(Decimal(got) - want)
                    assert error <= self.ULPS * Decimal(math.ulp(float(want))), (beta, got, want)

    # Rest lengths scale by 1/rate in place of _eta(b, 0): the two must agree
    # to the bit for every |b| < 1.
    @given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-5e-324)
    @example(math.nextafter(1.0, 0.0))
    @example(math.nextafter(-1.0, 0.0))
    def test_inverse_rate_is_eta_at_k_zero(self, b):
        assert (1.0 / _rate(b)).hex() == _eta(b, 0.0).hex()


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
            ({"signals": {}}, "signals_list"),
            ({"signals": [1]}, "signal_object"),
            # Distinct JSON integers that round to the same float.
            ({"node_positions": [0, 2**53, 2**53 + 1]}, "strictly_increasing_positions"),
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

    def test_scenario_error_is_the_errors_module_class(self):
        assert syncsim.ScenarioError is errors.ScenarioError

    def test_a_path_object_loads_as_its_string(self):
        assert load_scenario(SCENARIO_REST) == load_scenario(str(SCENARIO_REST))

    def test_an_integer_path_is_refused_not_read_as_a_file_descriptor(self):
        with open(SCENARIO_REST, "rb") as fh:
            with pytest.raises(TypeError):
                load_scenario(fh.fileno())
