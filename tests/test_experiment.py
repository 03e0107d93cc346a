import inspect
import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import pwesim.experiment as experiment

from pwesim.cli import _fmt_trim, main
from pwesim.experiment import (_KEYS, CSV_HEADER, ConfigError,
                               ExperimentConfig, _fmt, csv_text, dbm_to_watts,
                               emit_csv, load_config, parse_config, run_sweep)
from pwesim.steering import Biased, build_schedule, materialize_normals

FLOAT_KEYS = [key for key, (_, kind) in _KEYS.items()
              if kind in ("float", "float_list")]

TINY = """
# quick two-scheme setup for tests
steering.modes = static,baseline
tracer.n_rays = 801
sweep.step = 0.25
"""


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config("") == ExperimentConfig()

    def test_non_default_values_parse(self):
        cfg = parse_config("scene.aperture = 0.05\n"
                           "steering.bias_p = 0.2,0.4\n"
                           "tracer.spreading = inverse_square\n"
                           "tracer.rx_cone = true\n"
                           "latency.sensing = 1e-05\n")
        assert cfg.aperture == 0.05
        assert cfg.bias_p == (0.2, 0.4)
        assert cfg.spreading == "inverse_square"
        assert cfg.rx_cone is True
        assert cfg.latency_sensing == 1e-5

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# full line comment\n"
                           "scene.h = 1.2  # trailing comment\n\n")
        assert cfg.user_height == 1.2

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="scene.hieght"):
            parse_config("scene.hieght = 3.0")

    def test_bad_type_named(self):
        with pytest.raises(ConfigError, match="tracer.n_rays"):
            parse_config("tracer.n_rays = lots")

    def test_negative_step_named(self):
        with pytest.raises(ConfigError, match="sweep.step"):
            parse_config("sweep.step = -0.1")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("scene.h 1.2")

    def test_mode_list(self):
        cfg = parse_config("steering.modes = static,unbiased")
        assert cfg.modes == ("static", "unbiased")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="steering.modes"):
            parse_config("steering.modes = static,sideways")

    def test_empty_modes_rejected(self):
        with pytest.raises(ConfigError, match="steering.modes"):
            parse_config("steering.modes = ")

    def test_bias_p_range_checked(self):
        with pytest.raises(ConfigError, match="steering.bias_p"):
            parse_config("steering.bias_p = 0.5,1.5")

    def test_user_height_inside_corridor(self):
        with pytest.raises(ConfigError, match="scene.h"):
            parse_config("scene.h = 3.5")

    @pytest.mark.parametrize("rel", ("1.95", "-0.95"))
    def test_aperture_must_not_cross_ceiling_or_floor(self, rel):
        # the default 0.08 m disc at h + 1.95 = 2.95 m pokes through the
        # 3 m ceiling; at h - 0.95 = 0.05 m, through the floor
        with pytest.raises(ConfigError,
                           match="^scene.aperture: .*scene.rx_y_rel"):
            parse_config(f"scene.rx_y_rel = {rel}\n")
        assert parse_config("scene.rx_y_rel = 1.9\n").rx_y_rel == 1.9

    def test_aperture_must_not_contain_transmitter(self):
        # the disc at (0.05, 1.02), radius 0.1, holds the transmitter at
        # (0, 1); so does one that only a swept position reaches
        with pytest.raises(ConfigError, match="scene.aperture"):
            parse_config("scene.rx_x = 0.05\nscene.rx_y_rel = 0.02\n"
                         "scene.aperture = 0.1\n")
        with pytest.raises(ConfigError, match="scene.aperture"):
            parse_config("scene.rx_x = 0.45\nscene.rx_y_rel = 0.05\n"
                         "scene.aperture = 0.08\n")
        assert parse_config("scene.rx_x = 0.6\nscene.rx_y_rel = 0.05\n"
                            "scene.aperture = 0.08\n").rx_x == 0.6

    @pytest.mark.parametrize("rx_x", ("10", "4.0", "-1.0", "-2.5"))
    def test_receiver_must_lie_inside_corridor(self, rx_x):
        # the default corridor spans -1 m < x < 4 m; a receiver at 10 m
        # used to pass here and fail in Scene as a runtime error
        with pytest.raises(ConfigError, match="^scene.rx_x: .*corridor"):
            parse_config(f"scene.rx_x = {rx_x}\n")
        assert parse_config("scene.rx_x = 3.9\n").rx_x == 3.9

    def test_sweep_must_keep_transmitter_inside_corridor(self):
        # swept to 4.6 m, the transmitter left through the open end at 4 m
        # and the baseline still reported an efficiency of 0.19
        with pytest.raises(ConfigError, match="^sweep.stop: .*corridor"):
            parse_config("sweep.start = 4.5\nsweep.stop = 4.6\n"
                         "scene.rx_x = 3.0\n")
        with pytest.raises(ConfigError, match="^sweep.stop: "):
            parse_config("sweep.stop = 4.0\n")
        assert parse_config("sweep.stop = 3.9\n").sweep_stop == 3.9

    @pytest.mark.parametrize("offset", ("0", "5.0"))
    def test_offset_keeps_origin_strictly_inside(self, offset):
        # at offset 0 the transmitter would stand on the left wall
        with pytest.raises(ConfigError, match="^scene.offset: "):
            parse_config(f"scene.offset = {offset}\n")

    @pytest.mark.parametrize("value", ("nan", "inf", "-inf", "NaN"))
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_named(self, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: .*finite"):
            parse_config(f"{key} = {value}\n")

    def test_non_finite_list_entry_named(self):
        with pytest.raises(ConfigError, match="^steering.bias_p: .*finite"):
            parse_config("steering.bias_p = 0.1,nan\n")

    def test_sweep_points_default_grid(self):
        points = ExperimentConfig().sweep_points()
        assert len(points) == 51
        assert points[0] == 0.0
        assert points[-1] == pytest.approx(0.5, abs=1e-12)

    def test_sweep_points_single(self):
        cfg = parse_config("sweep.stop = 0\n")
        assert cfg.sweep_points() == (0.0,)

    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(TINY)
        assert load_config(str(path)).n_rays == 801

    def test_dbm_conversion(self):
        assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)
        assert dbm_to_watts(0.0) == pytest.approx(0.001, rel=1e-15)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)


# One config per `err(...)` site of `experiment._validate`, in source
# order: (text, key the message starts with, a phrase of that site's
# message). Each text passes every check before its site.
VALIDATE_SITES = (
    ("scene.H = -1", "scene.H", "must be > 0"),
    ("scene.L = 0", "scene.L", "must be > 0"),
    ("scene.h = 3.0", "scene.h", "strictly between the floor"),
    ("scene.offset = 0", "scene.offset", "x = 0 strictly inside"),
    ("scene.rx_x = 10", "scene.rx_x", "strictly inside the corridor"),
    ("scene.delta_hsf = 0", "scene.delta_hsf", "must be > 0"),
    ("scene.delta_tx = -0.002", "scene.delta_tx", "must be > 0"),
    ("scene.aperture = 0", "scene.aperture", "must be > 0"),
    ("scene.rx_y_rel = 1.95", "scene.aperture", "receive disc"),
    ("antenna.tx_beam_deg = 180", "antenna.tx_beam_deg", "(0, 180)"),
    ("antenna.rx_beam_deg = 0", "antenna.rx_beam_deg", "(0, 360]"),
    ("latency.actuation = -1e-3", "latency.actuation", "must be >= 0"),
    ("mobility.speed = -1", "mobility.speed", "must be >= 0"),
    ("steering.modes = ", "steering.modes", "at least one"),
    ("steering.modes = static,sideways", "steering.modes", "unknown mode"),
    ("steering.modes = static,static", "steering.modes", "must not repeat"),
    ("steering.bias_p = ", "steering.bias_p", "at least one p"),
    ("steering.bias_p = 0.5,1.5", "steering.bias_p", "p must be in"),
    ("steering.bias_p = 0.1,0.1", "steering.bias_p", "must not repeat"),
    ("steering.j_c = -1", "steering.j_c", "must be >= 0"),
    ("tracer.n_rays = 1", "tracer.n_rays", "must be >= 2"),
    ("tracer.max_bounces = 0", "tracer.max_bounces", "must be >= 1"),
    ("tracer.spreading = linear", "tracer.spreading", "geometric or"),
    ("sweep.step = 0", "sweep.step", "must be > 0"),
    ("sweep.stop = -0.1", "sweep.stop", "must be >= sweep.start"),
    ("sweep.start = -0.2\nsweep.stop = -0.1", "sweep.start", "must be >= 0"),
    ("sweep.stop = 4.0", "sweep.stop", "keep the transmitter inside"),
    ("scene.rx_x = 0.05\nscene.rx_y_rel = 0.02\nscene.aperture = 0.1",
     "scene.aperture", "must not contain the transmitter"),
    ("output.csv = ", "output.csv", "must not be empty"),
)


class TestValidate:
    def test_table_covers_every_site(self):
        source = inspect.getsource(experiment._validate)
        assert len(VALIDATE_SITES) == source.count("err(") - 1  # its def

    @pytest.mark.parametrize("text,key,phrase", VALIDATE_SITES)
    def test_site_names_its_key(self, text, key, phrase):
        with pytest.raises(ConfigError) as err:
            parse_config(text + "\n")
        assert str(err.value).startswith(f"{key}: ")
        assert phrase in str(err.value)

    @pytest.mark.parametrize("text,key,phrase", [
        VALIDATE_SITES[i] for i in (2, 8, 14, 26)])
    def test_sweep_exits_2(self, capsys, tmp_path, text, key, phrase):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text + "\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    @settings(max_examples=200, deadline=None)
    @given(height=st.floats(0.5, 5.0), length=st.floats(0.5, 10.0),
           fracs=st.tuples(*[st.floats(-0.05, 1.05)] * 4),
           aperture=st.floats(0.001, 0.5), delta_hsf=st.floats(1e-3, 1.0))
    def test_accepted_config_builds_its_scene(self, height, length, fracs,
                                              aperture, delta_hsf):
        """Every geometry that `parse_config` accepts builds a `Scene`,
        whose checks (the transmitter between floor and ceiling among
        them) then never fail at run time. The transmitter, the open ends
        and the receiver are drawn in and just outside the corridor."""
        user, offset, rx_x, rx_y = (f * span for f, span in zip(
            fracs, (height, length, length, height)))
        text = (f"scene.H = {height!r}\nscene.L = {length!r}\n"
                f"scene.offset = {offset!r}\nscene.h = {user!r}\n"
                f"scene.rx_x = {rx_x - offset!r}\n"
                f"scene.rx_y_rel = {rx_y - user!r}\n"
                f"scene.aperture = {aperture!r}\n"
                f"scene.delta_hsf = {delta_hsf!r}\nsweep.stop = 0\n")
        try:
            cfg = parse_config(text)
        except ConfigError:
            return
        scene = cfg.scene()
        assert scene.tx.position.y == cfg.user_height


@pytest.fixture(scope="module")
def tiny_result():
    return run_sweep(parse_config(TINY))


class TestRunSweep:

    def test_row_count(self, tiny_result):
        # 2 curves x 3 dislocations
        assert len(tiny_result.rows) == 6

    def test_rows_sorted_and_complete(self, tiny_result):
        keys = [(r.scheme, r.bias_p or -1.0, r.d_x) for r in tiny_result.rows]
        assert keys == sorted(keys)
        assert {r.scheme for r in tiny_result.rows} == {"static", "baseline"}

    def test_efficiency_consistent(self, tiny_result):
        for r in tiny_result.rows:
            assert r.efficiency == pytest.approx(
                r.captured_w / tiny_result.emitted_w, rel=1e-12)
            total = r.captured_w + r.escaped_w + r.terminated_w
            assert total == pytest.approx(tiny_result.emitted_w, rel=1e-12)

    def test_emitted_matches_power_key(self, tiny_result):
        assert tiny_result.emitted_w == pytest.approx(0.1, rel=1e-15)

    def test_biased_curves_expand_per_p(self):
        cfg = parse_config("steering.modes = biased\n"
                           "steering.bias_p = 0.2,0.4\n"
                           "tracer.n_rays = 201\nsweep.step = 0.5\n")
        result = run_sweep(cfg)
        assert [(r.scheme, r.bias_p, r.d_x) for r in result.rows] == [
            ("biased", 0.2, 0.0), ("biased", 0.2, 0.5),
            ("biased", 0.4, 0.0), ("biased", 0.4, 0.5)]

    def test_j_c_must_fit_grid(self):
        cfg = parse_config("steering.modes = biased\nsteering.j_c = 9999\n"
                           "tracer.n_rays = 201\n")
        with pytest.raises(ConfigError, match="steering.j_c"):
            run_sweep(cfg)

    def test_workers_match_serial(self):
        cfg = parse_config("steering.modes = static,baseline\n"
                           "tracer.n_rays = 401\nsweep.step = 0.25\n")
        serial = run_sweep(cfg, workers=1)
        parallel = run_sweep(cfg, workers=3)
        assert csv_text(serial) == csv_text(parallel)

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            run_sweep(ExperimentConfig(), workers=0)

    @pytest.mark.parametrize("exponent", (-60, -40, -20, 100))
    def test_power_of_two_scale_changes_no_row(self, exponent):
        """Scaling every length key by 2^k scales every distance the
        program computes exactly and keeps every ratio, so each row is the
        same but for its d_x. A fixed length threshold breaks this: at
        2^-20 it changed rows, and at 2^-40 it rejected the scene."""
        lengths = ("scene.H", "scene.L", "scene.offset", "scene.h",
                   "scene.rx_x", "scene.rx_y_rel", "scene.delta_hsf",
                   "scene.delta_tx", "scene.aperture", "sweep.start",
                   "sweep.stop", "sweep.step")
        base = ExperimentConfig(sweep_step=0.25)

        def rows(scale):
            text = "".join(
                f"{key} = {getattr(base, _KEYS[key][0]) * scale!r}\n"
                for key in lengths)
            return run_sweep(parse_config(text)).rows

        want = rows(1.0)
        assert len(want) == 18
        scale = 2.0 ** exponent
        assert rows(scale) == tuple(replace(r, d_x=r.d_x * scale)
                                    for r in want)


class TestCsv:
    def test_header_and_shape(self):
        result = run_sweep(parse_config(TINY))
        text = csv_text(result)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(result.rows)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_fixed_width_decimal_fields(self):
        result = run_sweep(parse_config(TINY))
        for line in csv_text(result).splitlines()[1:]:
            fields = line.split(",")
            assert fields[1] == ""  # no bias for static/baseline
            for cell in fields[2:]:
                assert cell
                assert "e" not in cell and "E" not in cell

    def test_emit_csv_writes_file(self, tmp_path):
        result = run_sweep(parse_config(TINY))
        out = tmp_path / "rows.csv"
        emit_csv(result, str(out))
        assert out.read_bytes().decode("utf-8") == csv_text(result)

    def test_float_format_golden(self):
        # 9 significant digits, rounded by Python: numpy's formatter gave
        # 0.03 eight digits, 0.01 ten, and 0.1 nine or eight depending on
        # the last ulp
        golden = {0.0: ("0.00000000", "0"),
                  0.01: ("0.0100000000", "0.01"),
                  0.03: ("0.0300000000", "0.03"),
                  0.1: ("0.100000000", "0.1"),
                  0.09999999999999999: ("0.100000000", "0.1"),
                  0.5: ("0.500000000", "0.5"),
                  1e-7: ("0.000000100000000", "0.0000001"),
                  0.999999999999: ("1.00000000", "1")}
        got = {x: (_fmt(x), _fmt_trim(x)) for x in golden}
        assert got == golden

    def test_repeat_runs_identical(self):
        cfg = parse_config(TINY)
        assert csv_text(run_sweep(cfg)) == csv_text(run_sweep(cfg))


class TestCli:
    def test_delay_reference_numbers(self, capsys, tmp_path):
        path = tmp_path / "delay.cfg"
        path.write_text("latency.sensing = 0.01\nmobility.speed = 1.4\n")
        assert main(["delay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tau_tot = 0.01 s" in out
        assert "d_x = 0.014 m" in out

    def test_delay_default_config_is_zero(self, capsys):
        assert main(["delay"]) == 0
        out = capsys.readouterr().out
        assert "tau_tot = 0 s" in out
        assert "d_x = 0 m" in out

    def test_sweep_writes_csv(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "result.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 7

    def test_sweep_respects_output_key(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY + "output.csv = from_key.csv\n")
        assert main(["sweep", str(cfg)]) == 0
        assert (tmp_path / "from_key.csv").exists()

    def test_bad_config_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sweep.step = -0.1\n")
        assert main(["sweep", str(cfg)]) == 2
        assert "sweep.step" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ("scene.aperture = nan",
                                      "sweep.step = nan"))
    def test_non_finite_config_exits_2(self, capsys, tmp_path, line):
        # a NaN aperture used to sweep to efficiency 0 in every row, and a
        # NaN step to fail converting NaN to an integer
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert line.split(" ")[0] in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, capsys, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.cfg")]) == 2

    def test_trace_dumps_polylines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "paths.csv"
        assert main(["trace", str(cfg), "--dx", "0.02", "--paths", str(out),
                     "--rays", "9"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "ray,fate,delivered_w,vertex,x_m,y_m"
        assert len({line.split(",")[0] for line in lines[1:]}) == 9

    def test_trace_builds_only_its_curve(self, capsys, tmp_path,
                                         monkeypatch):
        built = []

        def spy(schedule, scene):
            built.append(schedule.assignment)
            return materialize_normals(schedule, scene)

        monkeypatch.setattr("pwesim.experiment.materialize_normals", spy)
        out = tmp_path / "paths.csv"
        assert main(["trace", "--scheme", "biased", "--bias-p", "0.3",
                     "--rays", "5", "--paths", str(out)]) == 0
        scene = ExperimentConfig().scene()
        want = build_schedule(Biased(0.3, 0), scene.subunit_count - 1, 250,
                              0.002)
        assert built == [want.assignment]

    def test_trace_unlisted_scheme_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(TINY)
        out = tmp_path / "paths.csv"
        assert main(["trace", str(cfg), "--scheme", "unbiased",
                     "--paths", str(out)]) == 2

    def test_trace_dx_into_aperture_exits_2(self, capsys, tmp_path):
        # at --dx 1.0 the transmitter sits inside the disc at (1.0, 1.05);
        # traced, a 0.1 W fan delivered 109.5 W under inverse-square spreading
        cfg = tmp_path / "near.cfg"
        cfg.write_text("scene.rx_x = 1.0\nscene.rx_y_rel = 0.05\n"
                       "tracer.spreading = inverse_square\n")
        out = tmp_path / "paths.csv"
        args = ["trace", str(cfg), "--scheme", "baseline", "--paths", str(out)]
        assert main(args + ["--dx", "1.0"]) == 2
        assert "--dx" in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--dx", "0.9"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("text,key", (
        ("scene.rx_x = 10\n", "scene.rx_x"),
        ("sweep.start = 4.5\nsweep.stop = 4.6\nscene.rx_x = 3.0\n",
         "sweep.stop")))
    def test_geometry_outside_corridor_exits_2(self, capsys, tmp_path, text,
                                                key):
        cfg = tmp_path / "outside.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err
        assert not out.exists()

    def test_aperture_at_zero_dislocation_exits_2(self, capsys, tmp_path):
        # the sweep starts clear of the disc at (0.05, 1.05), but the scene
        # also places the transmitter at d = 0, inside it
        cfg = tmp_path / "near.cfg"
        cfg.write_text("scene.rx_x = 0.05\nscene.rx_y_rel = 0.05\n"
                       "sweep.start = 0.2\n")
        out = tmp_path / "out.csv"
        assert main(["sweep", str(cfg), "--out", str(out)]) == 2
        assert "config error: scene.aperture: " in capsys.readouterr().err
        assert not out.exists()

    def test_trace_dx_outside_corridor_exits_2(self, capsys, tmp_path):
        out = tmp_path / "paths.csv"
        args = ["trace", "--scheme", "baseline", "--paths", str(out),
                "--rays", "9"]
        assert main(args + ["--dx", "4.5"]) == 2
        assert "--dx: " in capsys.readouterr().err
        assert not out.exists()
        assert main(args + ["--dx", "3.5"]) == 0
        assert out.exists()

    def test_schedule_dump(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steering.modes = unbiased\nscene.delta_hsf = 0.5\n"
                       "scene.delta_tx = 0.1\n")
        assert main(["schedule", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "scheme,bias_p,i,j,normal_x,normal_y"
        assert len(lines) == 11  # 5 m / 0.5 m -> 10 subunits
        assert lines[1].startswith("unbiased,,0,0,")
        # the j column cycles through every served position in order
        js = [int(line.split(",")[3]) for line in lines[1:]]
        j_count = max(js) + 1
        assert js == [k % j_count for k in range(10)]

    def test_trace_one_ray_exits_2(self, capsys, tmp_path):
        out = tmp_path / "paths.csv"
        with pytest.raises(SystemExit) as err:
            main(["trace", "--paths", str(out), "--rays", "1"])
        assert err.value.code == 2
        assert "--rays: must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_zero_workers_exits_2(self, capsys, tmp_path):
        out = tmp_path / "result.csv"
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--out", str(out), "--workers", "0"])
        assert err.value.code == 2
        assert "--workers: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
