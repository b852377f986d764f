import json

import numpy as np
import pytest

from subnyq import TimeSeries
from subnyq.cli import ValidationError, emit_plot_data, main, run

SPEC23 = {
    "f_max": 5.0,
    "bands": [
        {"a": 0.5, "B": 0.6, "t": 60.0, "f": 1.0},
        {"a": 0.5, "B": 0.3, "t": 100.0, "f": 2.6},
        {"a": 0.5, "B": 0.4, "t": 140.0, "f": 4.0},
    ],
}

SPEC34 = {
    "f_max": 20.0,
    "bands": [
        {"a": 1.0, "B": 0.9, "t": 120.0, "f": 4.8},
        {"a": 1.0, "B": 0.9, "t": 200.0, "f": 10.45},
        {"a": 1.0, "B": 0.9, "t": 280.0, "f": 15.4},
    ],
}


@pytest.fixture()
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC23))
    return str(path)


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["name"] == "subnyq"
    assert out["version"]


def test_schema_flag(capsys):
    assert main(["--schema", "pattern"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["command"] == "pattern"
    assert "method" in out["fields"]
    assert main(["--schema", "nope"]) == 2


def test_pattern_sfs_json(tmp_path, capsys):
    out = tmp_path / "pat.json"
    rc = main(["pattern", "--method", "sfs", "--L", "16", "--p", "5",
               "--k", "3,4,5,10,11", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["cond"] == pytest.approx(2.06, rel=0.01)
    assert payload["evaluations"] == 70
    assert len(payload["C"]) == 5
    assert payload["config_hash"]
    assert payload["version"]


def test_designed_pattern_round_trips_into_reconstruct(tmp_path, spec_file):
    # the pattern file carries its T, so reconstruct accepts it at f_max 5
    pat = tmp_path / "p.json"
    rc = main(["pattern", "--method", "sfs", "--L", "32", "--p", "12",
               "--k", "0,1,2,3,9,10,11,12,13,24,25,26", "--T", "0.2", "--out", str(pat)])
    assert rc == 0
    assert json.loads(pat.read_text())["T"] == 0.2
    rc = main(["reconstruct", "--spec", spec_file, "--pattern", str(pat), "--M", "1024",
               "--out", str(tmp_path / "rec.csv")])
    assert rc == 0


def test_pattern_exhaustive_json(tmp_path):
    out = tmp_path / "pat.json"
    rc = main(["pattern", "--method", "exhaustive", "--L", "16", "--p", "5",
               "--k", "3,4,5,10,11", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["evaluations"] == 4368
    assert payload["cond"] == pytest.approx(2.06, rel=0.01)


def test_pattern_blind_sfs_requires_seed(tmp_path, capsys):
    rc = main(["pattern", "--method", "blind-sfs", "--N", "3", "--B", "1.5",
               "--fmax", "20", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "seed" in err["error"]


def test_pd_sweep_requires_seed(tmp_path, capsys):
    rc = main(["pd-sweep", "--snr", "30", "--cr", "0.3", "--trials", "4",
               "--out", str(tmp_path / "pd.csv")])
    assert rc == 2
    assert "seed" in json.loads(capsys.readouterr().err)["error"]


def test_sense_snr_requires_seed(tmp_path, capsys):
    # sense's seed defaults to 0, so a check on the resolved config ran this
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC34))
    rc = main(["sense", "--fmax", "20", "--B", "1", "--omega", "0.15", "--spec", str(spec),
               "--M", "8192", "--snr-db", "25", "--out", str(tmp_path / "s.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "seed" in err["error"]
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_pattern_blind_sfs_refuses_T(tmp_path, capsys, source):
    # blind-sfs designs at T = 1/fmax; a given T was dropped without a word
    args = ["pattern", "--method", "blind-sfs", "--N", "3", "--B", "1.5", "--fmax", "20",
            "--seed", "1", "--out", str(tmp_path / "x.json")]
    if source == "flag":
        args += ["--T", "0.7"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.7}))
        args += ["--config", str(cfg)]
    assert main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "'T'" in err["error"]
    assert not (tmp_path / "x.json").exists()


# Each command's input forms: the fields a missing or dropped field makes the
# run refuse.  Every "dropped" config exited 0 when a first matching branch
# settled it and the named flags were ignored; a seed is dropped by a run
# that draws no noise.
FORM_CASES = {
    "synth-noise-none-drops-sigma": (["synth", "--spec", "{spec}", "--M", "64", "--sigma", "0.5",
                                      "--seed", "1"], ["seed", "sigma"]),
    "synth-awgn-drops-bits": (["synth", "--spec", "{spec}", "--M", "64", "--noise", "awgn", "--sigma", "0.1",
                               "--seed", "1", "--bits", "4"], ["bits"]),
    "synth-quantizer-drops-seed": (["synth", "--spec", "{spec}", "--M", "64", "--noise", "quantizer",
                                    "--seed", "1"], ["seed"]),
    "synth-awgn-zero-sigma-drops-seed": (["synth", "--spec", "{spec}", "--M", "64", "--noise", "awgn",
                                          "--sigma", "0", "--seed", "1"], ["seed"]),
    "reconstruct-pattern-drops-L-p": (["reconstruct", "--spec", "{spec}", "--pattern", "{pat}", "--M", "1024",
                                       "--L", "16", "--p", "3"], ["L", "p"]),
    "reconstruct-noise-none-drops-sigma": (["reconstruct", "--spec", "{spec}", "--L", "32", "--p", "12",
                                            "--M", "1024", "--sigma", "0.1", "--seed", "1"], ["seed", "sigma"]),
    "reconstruct-awgn-zero-sigma-drops-seed": (["reconstruct", "--spec", "{spec}", "--L", "32", "--p", "12",
                                                "--M", "1024", "--noise", "awgn", "--sigma", "0", "--seed", "1"],
                                               ["seed"]),
    "reconstruct-L-needs-p": (["reconstruct", "--spec", "{spec}", "--L", "32", "--M", "1024"], ["p"]),
    "reconstruct-needs-a-pattern": (["reconstruct", "--spec", "{spec}", "--M", "1024"], ["pattern", "L", "p"]),
    "pattern-sfs-drops-blind-fields": (["pattern", "--method", "sfs", "--L", "16", "--p", "5", "--k", "3,4,5,10,11",
                                        "--seed", "9", "--budget", "3", "--N", "4"], ["N", "budget", "seed"]),
    "pattern-blind-sfs-drops-k": (["pattern", "--method", "blind-sfs", "--N", "3", "--B", "1.5", "--fmax", "20",
                                   "--seed", "1", "--k", "1,2"], ["k"]),
    "pattern-exhaustive-needs-k": (["pattern", "--method", "exhaustive", "--L", "16", "--p", "5"], ["k"]),
    "pattern-blind-sfs-needs-fmax": (["pattern", "--method", "blind-sfs", "--N", "3", "--B", "1.5",
                                      "--seed", "1"], ["fmax"]),
    "cond-hist-C-needs-N": (["cond-hist", "--L", "16", "--p", "5", "--C", "0,1,7,8,12", "--trials", "3",
                             "--seed", "0"], ["N"]),
    "cond-hist-needs-k-or-C": (["cond-hist", "--L", "16", "--p", "5", "--trials", "3", "--seed", "0"],
                               ["k", "C", "N"]),
    "blind-streams-drops-synthesis": (["blind", "--streams", "{csv}", "--pattern", "{pat}", "--spec", "{spec}",
                                       "--M", "10", "--snr-db", "-30", "--seed", "1"],
                                      ["M", "seed", "snr_db", "spec"]),
    "blind-spec-without-snr-drops-seed": (["blind", "--spec", "{spec}", "--pattern", "{pat}", "--seed", "1"],
                                          ["seed"]),
    "blind-music-drops-epsilon": (["blind", "--spec", "{spec}", "--pattern", "{pat}", "--localize", "music",
                                   "--epsilon", "0.2"], ["epsilon"]),
    "blind-M-needs-spec": (["blind", "--pattern", "{pat}", "--M", "8192"], ["spec"]),
    "blind-needs-streams-or-spec": (["blind", "--pattern", "{pat}"], ["streams", "spec"]),
    "sense-input-drops-snr": (["sense", "--fmax", "20", "--B", "1", "--omega", "0.15", "--input", "{csv}",
                               "--snr-db", "-20", "--seed", "3"], ["snr_db"]),
    "sense-input-drops-spec-M": (["sense", "--fmax", "20", "--B", "1", "--omega", "0.15", "--input", "{csv}",
                                  "--spec", "{spec}", "--M", "50"], ["M", "spec"]),
    "sense-spec-needs-M": (["sense", "--fmax", "20", "--B", "1", "--omega", "0.15", "--spec", "{spec}"], ["M"]),
    "sense-needs-input-or-spec": (["sense", "--fmax", "20", "--B", "1", "--omega", "0.15"], ["input", "spec", "M"]),
}


@pytest.mark.parametrize("args,fields", FORM_CASES.values(), ids=FORM_CASES.keys())
def test_input_forms_refuse_missing_and_dropped_fields(tmp_path, capsys, args, fields):
    paths = {"spec": tmp_path / "spec.json", "pat": tmp_path / "pat.json", "csv": tmp_path / "x.csv"}
    paths["spec"].write_text(json.dumps(SPEC34))
    paths["pat"].write_text(json.dumps({"L": 22, "p": 7, "C": [0, 5, 6, 8, 11, 16, 17], "T": 0.05}))
    paths["csv"].write_text("n,re,im\n0,1.0,0.0\n")
    out = tmp_path / "out"
    argv = [a.format(**paths) for a in args] + ["--out", str(out)]
    if args[0] in ("synth", "reconstruct", "blind", "cond-hist"):
        argv += ["--plot-out", str(tmp_path / "plot.csv")]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    for field in fields:
        assert f"'{field}'" in err["error"]
    assert sorted(tmp_path.iterdir()) == sorted(paths.values())


@pytest.mark.parametrize("command", ["synth", "reconstruct"])
def test_spectrum_plot_has_one_row_per_sample(tmp_path, spec_file, command):
    out, plot = tmp_path / "x.csv", tmp_path / "plot.csv"
    args = [command, "--spec", spec_file, "--M", "1024", "--out", str(out), "--plot-out", str(plot)]
    if command == "reconstruct":
        args += ["--L", "32", "--p", "12"]
    assert main(args) == 0
    assert len(out.read_text().splitlines()) == 2 + 1024
    lines = plot.read_text().splitlines()
    assert lines[0] == "freq,magnitude"
    assert len(lines) == 1 + 1024


def test_synth_deterministic(tmp_path, spec_file):
    a = tmp_path / "a.csv"
    args = ["synth", "--spec", spec_file, "--M", "128", "--noise", "awgn",
            "--sigma", "0.1", "--seed", "3", "--out", str(a)]
    assert main(args) == 0
    first = a.read_bytes()
    assert main(args) == 0
    assert a.read_bytes() == first
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# subnyq=")
    assert lines[1] == "n,re,im"
    assert len(lines) == 130


def test_reconstruct_end_to_end(tmp_path, spec_file):
    out = tmp_path / "rec.csv"
    rep = tmp_path / "rec.json"
    rc = main(["reconstruct", "--spec", spec_file, "--L", "32", "--p", "12",
               "--Nh", "383", "--M", "1024", "--out", str(out), "--report", str(rep)])
    assert rc == 0
    payload = json.loads(rep.read_text())
    assert payload["rmse"] <= 0.03
    assert payload["k"] == [4, 5, 6, 7, 8, 15, 16, 17, 24, 25, 26]
    assert payload["cond"] < 5.0
    assert payload["filter_meets_spec"] is True
    assert out.read_text().splitlines()[1] == "n,re,im"


def test_reconstruct_reports_failing_filter_spec(tmp_path, spec_file):
    rep = tmp_path / "rec.json"
    rc = main(["reconstruct", "--spec", spec_file, "--L", "16", "--p", "10",
               "--Nh", "15", "--M", "1024", "--out", str(tmp_path / "rec.csv"),
               "--report", str(rep)])
    assert rc == 0
    assert json.loads(rep.read_text())["filter_meets_spec"] is False


def test_blind_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC34))
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps({"L": 22, "p": 7, "C": [0, 5, 6, 8, 11, 16, 17], "T": 0.05}))
    out = tmp_path / "blind.json"
    rc = main(["blind", "--spec", str(spec), "--pattern", str(pat), "--M", "8192",
               "--snr-db", "30", "--seed", "42", "--order", "mdl",
               "--localize", "music", "--out", str(out),
               "--plot-out", str(tmp_path / "eigs.csv")])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["q_hat"] == 5
    assert payload["k_hat"] == [4, 5, 11, 16, 17]
    assert len(payload["eigenvalues"]) == 7
    assert "pseudo_spectrum" in payload
    assert payload["filter_meets_spec"] is True
    plot = (tmp_path / "eigs.csv").read_text().splitlines()
    assert plot[0] == "index,value"
    assert len(plot) == 8


def test_blind_eft_honors_qmin(tmp_path):
    # the criterion-12 blind config at 0 dB: EFT counted 0 cells whatever --qmin was
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC34))
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps({"L": 22, "p": 7, "C": [0, 5, 6, 8, 11, 16, 17], "T": 0.05}))
    out = tmp_path / "blind.json"
    rc = main(["blind", "--spec", str(spec), "--pattern", str(pat), "--M", "8192",
               "--snr-db", "0", "--seed", "42", "--order", "eft", "--qmin", "3",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["q_hat"] >= 3


def test_blind_from_stream_csv(tmp_path):
    import numpy as np

    from subnyq import (
        MultibandSignalSpec,
        SamplingPattern,
        coset_decompose,
        synthesize,
    )
    from subnyq.sampling import streams_to_csv

    spec = MultibandSignalSpec.from_dict(SPEC34)
    x = synthesize(spec, 0.05, 8192)
    pattern = SamplingPattern(22, (0, 5, 6, 8, 11, 16, 17), 0.05)
    cs = coset_decompose(x, pattern)
    streams_path = tmp_path / "streams.csv"
    streams_path.write_text(streams_to_csv(cs))
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps(pattern.to_dict()))
    out = tmp_path / "blind.json"
    rc = main(["blind", "--streams", str(streams_path), "--pattern", str(pat),
               "--order", "mdl", "--localize", "nlls", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["k_hat"] == [4, 5, 11, 16, 17]
    assert "ls_trace" in payload


def test_cond_hist_command(tmp_path):
    out = tmp_path / "hist.csv"
    rc = main(["cond-hist", "--L", "16", "--p", "5", "--k", "3,4,5,10,11",
               "--trials", "100", "--seed", "0", "--out", str(out),
               "--plot-out", str(tmp_path / "bins.csv")])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "cond"
    assert len(lines) == 102
    assert (tmp_path / "bins.csv").read_text().splitlines()[0] == "bin_left,count"


def test_cond_hist_k_conflicts_with_support_fields(tmp_path, capsys):
    # k selects random patterns; C, N and d belong to the random-support mode
    rc = main(["cond-hist", "--L", "16", "--p", "5", "--k", "3,4,5,10,11", "--C", "0,1,7,8,12",
               "--N", "2", "--trials", "3", "--seed", "0", "--out", str(tmp_path / "h.csv")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "cond-hist with 'k' does not read 'C', 'N'" in err["error"]
    rc = main(["cond-hist", "--L", "16", "--p", "5", "--k", "3,4,5,10,11", "--d", "2",
               "--trials", "3", "--seed", "0", "--out", str(tmp_path / "h.csv")])
    assert rc == 2
    assert "does not read 'd'" in json.loads(capsys.readouterr().err)["error"]
    assert not (tmp_path / "h.csv").exists()


@pytest.mark.parametrize("N,d", [("3", "-1"), ("0", "1")])
def test_cond_hist_rejects_bad_anchor_draw(tmp_path, capsys, N, d):
    rc = main(["cond-hist", "--L", "16", "--p", "5", "--C", "0,1,7,8,12", "--N", N,
               "--d", d, "--trials", "5", "--seed", "0", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "runtime"
    assert "N >= 1 and d >= 0" in err["error"]


def test_sense_command(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "f_max": 20.0,
        "bands": [{"a": 1.0, "B": 0.8, "t": 100.0, "f": 5.5}],
    }))
    out = tmp_path / "sense.json"
    rc = main(["sense", "--fmax", "20", "--B", "1", "--omega", "0.15",
               "--spec", str(spec), "--M", "4000", "--snr-db", "25",
               "--seed", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["occupied"] == [5]
    assert len(payload["free_channels"]) == 19
    assert payload["diagnostics"]["order_method"] == "mdl"
    assert payload["diagnostics"]["filter_meets_spec"] is True


@pytest.mark.parametrize("command", ["sense", "pattern"])
def test_plot_out_rejected_where_no_plot_is_written(tmp_path, capsys, command):
    plot = tmp_path / "f"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "o.json"), "--plot-out", str(plot)])
    assert exc.value.code == 2
    assert "--plot-out" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"plot_out": str(plot)}))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 2
    assert not plot.exists()


def test_pd_sweep_command_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    args = ["pd-sweep", "--snr", "10,30", "--cr", "0.2", "--trials", "6",
            "--seed", "4", "--blocks", "50", "--out", str(a),
            "--plot-out", str(tmp_path / "p.csv")]
    assert main(args) == 0
    first = a.read_bytes()
    assert main(args) == 0
    assert a.read_bytes() == first
    lines = a.read_text().splitlines()
    assert lines[1] == "snr_db,cr,trials,detections,pd,ci95"
    assert len(lines) == 4
    plot = (tmp_path / "p.csv").read_text().splitlines()
    assert plot[0] == "snr_db,cr,pd"
    assert len(plot) == 3


def test_config_file_with_flag_override(tmp_path, spec_file):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "method": "sfs", "L": 16, "p": 5, "k": [3, 4, 5, 10, 11],
        "out": str(tmp_path / "ignored.json"),
    }))
    out = tmp_path / "actual.json"
    rc = main(["pattern", "--config", str(cfgfile), "--out", str(out)])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "ignored.json").exists()


def test_unknown_config_field_rejected(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"method": "sfs", "bogus": 1}))
    rc = main(["pattern", "--config", str(cfgfile), "--out", str(tmp_path / "o.json")])
    assert rc == 2


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps([["method", "sfs"]]))
    rc = main(["pattern", "--config", str(cfgfile), "--out", str(tmp_path / "o.json")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "validation"
    assert "JSON object" in err["error"]


def runtime_error(capsys) -> str:
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "runtime"
    return err["error"]


def test_pattern_file_without_C(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC34))
    pat = tmp_path / "pat.json"
    pat.write_text(json.dumps({"L": 22, "p": 7, "T": 0.05}))
    rc = main(["blind", "--spec", str(spec), "--pattern", str(pat), "--out", str(tmp_path / "b.json")])
    assert rc == 1
    assert "missing key 'C'" in runtime_error(capsys)


def test_spec_band_without_f(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"f_max": 5.0, "bands": [{"a": 0.5, "B": 0.6, "t": 60.0}]}))
    rc = main(["synth", "--spec", str(spec), "--M", "64", "--out", str(tmp_path / "s.csv")])
    assert rc == 1
    assert "missing key 'f'" in runtime_error(capsys)


def test_sense_input_with_a_short_row(tmp_path, capsys):
    csv = tmp_path / "x.csv"
    csv.write_text("n,re,im\n0,1.0,0.0\n1,2.0\n2,1.0,0.0\n")
    rc = main(["sense", "--fmax", "20", "--B", "1", "--omega", "0.15",
               "--input", str(csv), "--out", str(tmp_path / "s.json")])
    assert rc == 1
    assert "row 1 has 2 fields, expected 3" in runtime_error(capsys)


def test_cond_hist_pattern_must_match_L_and_p(tmp_path, capsys):
    # p = 9 was ignored: the conds came from the five offsets of C
    rc = main(["cond-hist", "--L", "16", "--p", "9", "--C", "0,1,7,8,12", "--N", "2",
               "--trials", "5", "--seed", "0", "--out", str(tmp_path / "h.csv")])
    assert rc == 1
    assert "p=9 disagree" in runtime_error(capsys)


def test_non_finite_report_numbers_are_strings(tmp_path):
    # a zero-amplitude signal has no energy to compare against: rmse is inf
    spec = tmp_path / "zero.json"
    spec.write_text(json.dumps({"f_max": 5.0, "bands": [{"a": 0.0, "B": 0.6, "t": 60.0, "f": 1.0}]}))
    out = tmp_path / "rec.csv"
    rc = main(["reconstruct", "--spec", str(spec), "--L", "32", "--p", "12", "--M", "1024",
               "--noise", "awgn", "--sigma", "0.1", "--seed", "1", "--out", str(out)])
    assert rc == 0

    def no_constants(name):
        raise AssertionError(f"{name} is not JSON")

    report = json.loads((tmp_path / "rec.csv.json").read_text(), parse_constant=no_constants)
    assert report["rmse"] == "inf"


class TestEmitPlotData:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            emit_plot_data([1.0], "nope")

    def test_empty_histogram_header_only(self):
        assert emit_plot_data([], "histogram") == "bin_left,count\n"

    def test_eigenvalue_rows(self):
        text = emit_plot_data(np.array([3.0, 2.0, 1.0]), "eigenvalues")
        assert text.splitlines() == ["index,value", "0,3.0", "1,2.0", "2,1.0"]

    def test_spectrum_from_timeseries(self):
        ts = TimeSeries(np.exp(2j * np.pi * 0.25 * np.arange(8)), 1.0)
        lines = emit_plot_data(ts, "spectrum").splitlines()
        assert lines[0] == "freq,magnitude"
        assert len(lines) == 9
        mags = [float(l.split(",")[1]) for l in lines[1:]]
        assert int(np.argmax(mags)) == 2  # bin at 0.25 cycles/sample


# each refusal of the CLI layer not reached above, with a word of its message
CLI_REFUSALS = {
    "choice": (lambda: run("synth", {"spec": "s.json", "M": 4, "out": "o.csv", "noise": "bogus"}), "one of"),
    "spectrum-plot": (lambda: emit_plot_data([1.0, 2.0], "spectrum"), "TimeSeries"),
    "command": (lambda: run("bogus", {}), "unknown command"),
}


@pytest.mark.parametrize("call, word", CLI_REFUSALS.values(), ids=CLI_REFUSALS.keys())
def test_cli_refusals(call, word):
    with pytest.raises(ValidationError, match=word):
        call()


# f_max/B overflowed round() or floor() into an OverflowError traceback
OVERFLOW_RUNS = {
    "sense-fmax-inf": ["sense", "--fmax", "inf", "--B", "1", "--omega", "0.15", "--spec", "{spec}", "--M", "64"],
    "pd-sweep-ratio": ["pd-sweep", "--fmax", "1e308", "--B", "1e-10", "--snr", "10", "--cr", "0.2",
                       "--trials", "2", "--seed", "1"],
    "blind-sfs-ratio": ["pattern", "--method", "blind-sfs", "--N", "1", "--B", "1e-300", "--fmax", "1e10",
                        "--seed", "1"],
}


@pytest.mark.parametrize("args", OVERFLOW_RUNS.values(), ids=OVERFLOW_RUNS.keys())
def test_non_finite_band_ratio_is_a_json_error(tmp_path, capsys, args):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC34))
    out = tmp_path / "out"
    assert main([a.format(spec=spec) for a in args] + ["--out", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["kind"] == "runtime"
    assert "finite" in err["error"]
    assert sorted(tmp_path.iterdir()) == [spec]
