"""Command-line surface: reproducible experiments with serialized outputs.

One binary with subcommands (synth, pattern, cond-hist, reconstruct, blind,
sense, pd-sweep).  Every command accepts --config pointing at a JSON file;
explicit flags override file values.  Stochastic commands require an explicit
seed, and identical config + seed reruns produce byte-identical outputs.
Each output file embeds the artifact version and a hash of the resolved
config for provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import blind as blind_mod
from . import patterns as patterns_mod
from . import sensing as sensing_mod
from .reconstruct import (
    design_filter,
    reconstruct_time,
    spectral_index_from_support,
)
from .sampling import SamplingPattern, SpectralIndexSet, coset_decompose, streams_from_csv
from .sensing import SensingConfig, pd_sweep, sense
from .signals import (
    MultibandSignalSpec,
    NoiseModel,
    TimeSeries,
    _csv_text,
    apply_noise,
    synthesize,
    timeseries_from_csv,
    timeseries_to_csv,
)

__all__ = ["main", "run", "emit_plot_data", "SCHEMAS", "config_hash"]

COMMANDS = ("synth", "pattern", "cond-hist", "reconstruct", "blind", "sense", "pd-sweep")

# fields that more than one command declares
_NOISE = {
    "noise": {"type": "str", "required": False, "default": "none", "choices": ["none", "awgn", "quantizer"]},
    "sigma": {"type": "float", "required": False, "default": 0.0},
    "bits": {"type": "int", "required": False, "default": 8},
    "full_scale": {"type": "float", "required": False, "default": 1.0},
}
_ORDER = {"order": {"type": "str", "required": False, "default": "mdl", "choices": list(blind_mod.ORDER_METHODS)}}
_DETECTION = {
    **_ORDER,
    "localize": {"type": "str", "required": False, "default": "music", "choices": list(blind_mod.LOCALIZE_METHODS)},
}

SCHEMAS: dict[str, dict] = {
    "synth": {
        "spec": {"type": "path", "required": True, "help": "signal-spec JSON"},
        "T": {"type": "float", "required": False, "default": None, "help": "base period (default 1/f_max)"},
        "M": {"type": "int", "required": True, "help": "sample count"},
        **_NOISE,
        "seed": {"type": "int", "required": False, "default": None},
        "out": {"type": "path", "required": True},
    },
    "pattern": {
        "method": {"type": "str", "required": True, "choices": ["exhaustive", "sfs", "blind-sfs"]},
        "L": {"type": "int", "required": False, "default": None},
        "p": {"type": "int", "required": False, "default": None},
        "k": {"type": "list[int]", "required": False, "default": None},
        "T": {"type": "float", "required": False, "default": 1.0},
        "N": {"type": "int", "required": False, "default": None},
        "B": {"type": "float", "required": False, "default": None},
        "fmax": {"type": "float", "required": False, "default": None},
        "d": {"type": "int", "required": False, "default": 1},
        "budget": {"type": "int", "required": False, "default": 10**6},
        "seed": {"type": "int", "required": False, "default": None},
        "out": {"type": "path", "required": True},
    },
    "cond-hist": {
        "L": {"type": "int", "required": True},
        "p": {"type": "int", "required": True},
        "k": {"type": "list[int]", "required": False, "default": None},
        "C": {"type": "list[int]", "required": False, "default": None},
        "N": {"type": "int", "required": False, "default": None},
        "d": {"type": "int", "required": False, "default": 1},
        "trials": {"type": "int", "required": True},
        "seed": {"type": "int", "required": True},
        "out": {"type": "path", "required": True},
    },
    "reconstruct": {
        "spec": {"type": "path", "required": True},
        "pattern": {"type": "path", "required": False, "default": None},
        "L": {"type": "int", "required": False, "default": None},
        "p": {"type": "int", "required": False, "default": None},
        "Nh": {"type": "int", "required": False, "default": 383},
        "M": {"type": "int", "required": True},
        **_NOISE,
        "seed": {"type": "int", "required": False, "default": None},
        "out": {"type": "path", "required": True, "help": "reconstructed CSV"},
        "report": {"type": "path", "required": False, "default": None, "help": "JSON report (default: out + .json)"},
    },
    "blind": {
        "spec": {"type": "path", "required": False, "default": None},
        "streams": {"type": "path", "required": False, "default": None, "help": "coset-stream CSV"},
        "pattern": {"type": "path", "required": True},
        "M": {"type": "int", "required": False, "default": 4096},
        "snr_db": {"type": "float", "required": False, "default": None},
        "seed": {"type": "int", "required": False, "default": None},
        **_DETECTION,
        "qmin": {"type": "int", "required": False, "default": 0},
        "qmax": {"type": "int", "required": False, "default": None},
        "epsilon": {"type": "float", "required": False, "default": 0.01, "help": "NLLS stop, relative to total power"},
        "out": {"type": "path", "required": True},
    },
    "sense": {
        "fmax": {"type": "float", "required": True},
        "B": {"type": "float", "required": True},
        "omega": {"type": "float", "required": True},
        **_DETECTION,
        "p": {"type": "int", "required": False, "default": None},
        "input": {"type": "path", "required": False, "default": None, "help": "TimeSeries CSV at T = 1/fmax"},
        "spec": {"type": "path", "required": False, "default": None},
        "M": {"type": "int", "required": False, "default": None},
        "snr_db": {"type": "float", "required": False, "default": None},
        "seed": {"type": "int", "required": False, "default": 0},
        "out": {"type": "path", "required": True},
    },
    "pd-sweep": {
        "fmax": {"type": "float", "required": False, "default": 20.0},
        "B": {"type": "float", "required": False, "default": 1.0},
        "omega": {"type": "float", "required": False, "default": 0.1},
        "snr": {"type": "list[float]", "required": True},
        "cr": {"type": "list[float]", "required": True},
        "trials": {"type": "int", "required": True},
        "seed": {"type": "int", "required": True},
        "blocks": {"type": "int", "required": False, "default": 100},
        "metric": {"type": "str", "required": False, "default": "exact", "choices": ["exact", "contains"]},
        **_ORDER,
        "out": {"type": "path", "required": True},
    },
}

# the commands that write a plot-ready CSV
for _command in ("synth", "cond-hist", "reconstruct", "blind", "pd-sweep"):
    SCHEMAS[_command]["plot_out"] = {"type": "path", "required": False, "default": None}

# Each command's alternative input forms, as (selector, {label: form}) pairs.
# A form "req | opt" names the fields it requires, then the optional fields
# only it reads.  The selector field's value picks the form; with no selector,
# the first form that is given any of its fields is picked.
_NOISE_FORMS = ("noise", {"none": "", "awgn": "| sigma seed", "quantizer": "| bits full_scale"})
_FORMS: dict[str, tuple] = {
    "synth": (_NOISE_FORMS,),
    "pattern": (
        ("method", {"exhaustive": "L p k | T budget", "sfs": "L p k | T", "blind-sfs": "N B fmax seed | L d"}),
    ),
    "cond-hist": ((None, {"k": "k", "C": "C N | d"}),),
    "reconstruct": (_NOISE_FORMS, (None, {"pattern": "pattern", "L": "L p"})),
    "blind": (
        (None, {"streams": "streams", "spec": "spec | M snr_db seed"}),
        ("localize", {"music": "", "nlls": "| epsilon"}),
    ),
    "sense": ((None, {"input": "input", "spec": "spec M | snr_db"}),),
}


class ValidationError(ValueError):
    pass


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _parse_value(kind: str, raw):
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    if kind in ("str", "path"):
        return str(raw)
    conv = int if kind == "list[int]" else float
    if isinstance(raw, str):
        parts = [s for s in raw.split(",") if s != ""]
    else:
        parts = list(raw)
    return [conv(v) for v in parts]


def _validate(command: str, config: dict) -> dict:
    schema = SCHEMAS[command]
    unknown = set(config) - set(schema)
    if unknown:
        raise ValidationError(f"unknown fields for {command}: {sorted(unknown)}")
    resolved = {}
    for name, meta in schema.items():
        if name in config and config[name] is not None:
            val = _parse_value(meta["type"], config[name])
        elif meta.get("required"):
            raise ValidationError(f"{command}: missing required field '{name}'")
        else:
            val = meta.get("default")
        if val is not None and "choices" in meta and val not in meta["choices"]:
            raise ValidationError(
                f"{command}: field '{name}' must be one of {meta['choices']}"
            )
        resolved[name] = val
    _check_given(command, config, resolved)
    return resolved


def _check_given(command: str, config: dict, cfg: dict) -> None:
    """Checks on the given config, where the resolved cfg would show schema
    defaults.  In each of the command's _FORMS choices, the picked form's
    required fields must be given, and no given field may be one that only
    the other forms read.  A stochastic run needs a given seed (sense's
    defaults to 0), and a seed that a picked form reads only as an option
    is refused on a run that draws no noise."""
    given = {name for name, val in config.items() if val is not None}
    optional: set[str] = set()
    for selector, forms in _FORMS.get(command, ()):
        fields = {label: [f.split() for f in form.partition("|")[::2]] for label, form in forms.items()}
        if selector is None:
            label = next((lb for lb, (req, opt) in fields.items() if given & {*req, *opt}), None)
            if label is None:
                alts = " | ".join(", ".join(f"'{f}'" for f in req) for req, _ in fields.values())
                raise ValidationError(f"{command} needs one of: {alts}")
            picked = f"'{label}'"
        else:
            label = cfg[selector]
            picked = f"{selector}={label}"
        req, opt = fields[label]
        missing = [f"'{name}'" for name in req if name not in given]
        if missing:
            raise ValidationError(f"{command} with {picked} requires {', '.join(missing)}")
        others = {name for r, o in fields.values() for name in (*r, *o)}
        dropped = [f"'{name}'" for name in sorted(given & others - {*req, *opt})]
        if dropped:
            raise ValidationError(f"{command} with {picked} does not read {', '.join(dropped)}")
        optional.update(opt)
    stochastic = (cfg.get("noise") == "awgn" and cfg["sigma"]) or cfg.get("snr_db") is not None
    if stochastic and "seed" not in given:
        raise ValidationError(f"{command}: stochastic run requires an explicit seed")
    if not stochastic and "seed" in given & optional:
        raise ValidationError(f"{command}: a run that draws no noise does not read 'seed'")


def _provenance(config: dict) -> dict:
    return {"version": __version__, "config_hash": config_hash(config)}


def _json_safe(v):
    """v with every non-finite float spelled "inf", "-inf" or "nan", which
    JSON has no numbers for."""
    if isinstance(v, float) and not math.isfinite(v):
        return str(float(v))
    if isinstance(v, dict):
        return {key: _json_safe(x) for key, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    return v


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(_json_safe(payload), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def _stamp(config: dict) -> str:
    """The provenance comment that heads every CSV output."""
    return f"subnyq={__version__} config_hash={config_hash(config)}"


def emit_plot_data(result, kind: str) -> str:
    """Flatten a result into plot-ready CSV text.

    Kinds: "spectrum" (freq, magnitude) from a TimeSeries; "histogram"
    (bin_left, count) from a value sequence; "eigenvalues" (index, value)
    from a descending profile; "pd" (snr_db, cr, pd) from a PdResult.
    """
    if kind == "spectrum":
        if not isinstance(result, TimeSeries):
            raise ValidationError("spectrum plot needs a TimeSeries")
        n = len(result.samples)
        rows = []
        if n:
            mags = np.abs(np.fft.fft(result.samples)) / n
            rows = zip((np.arange(n) / (n * result.T)).tolist(), mags.tolist())
        return _csv_text("", ["freq", "magnitude"], rows)
    if kind == "histogram":
        vals = np.asarray(result, dtype=float)
        finite = vals[np.isfinite(vals)]
        rows = []
        if finite.size:
            counts, edges = np.histogram(finite, bins=50)
            rows = zip(edges[:-1].tolist(), counts.tolist())
        return _csv_text("", ["bin_left", "count"], rows)
    if kind == "eigenvalues":
        vals = result.values if isinstance(result, blind_mod.EigenSpectrum) else result
        return _csv_text("", ["index", "value"], enumerate(np.asarray(vals, dtype=float).tolist()))
    if kind == "pd":
        rows = result.rows if isinstance(result, sensing_mod.PdResult) else result
        return _csv_text(
            "", ["snr_db", "cr", "pd"], ([float(r.snr_db), float(r.cr), float(r.pd)] for r in rows)
        )
    raise ValidationError(f"unknown plot kind {kind!r}")


def _load_spec(path: str) -> MultibandSignalSpec:
    return MultibandSignalSpec.from_dict(json.loads(Path(path).read_text()))


def _load_pattern(path: str) -> SamplingPattern:
    return SamplingPattern.from_dict(json.loads(Path(path).read_text()))


def _noise_from_cfg(cfg: dict) -> NoiseModel:
    return NoiseModel(cfg["noise"], cfg["sigma"], cfg["bits"], cfg["full_scale"])


def _synth_input(spec: MultibandSignalSpec, M: int, snr_db, seed) -> TimeSeries:
    x = synthesize(spec, 1.0 / spec.f_max, M)
    if snr_db is not None:
        power = float(np.mean(np.abs(x.samples) ** 2))
        sigma = math.sqrt(power / 10.0 ** (snr_db / 10.0))
        x = apply_noise(x, NoiseModel.awgn(sigma), seed=seed or 0)
    return x


def _cmd_synth(cfg: dict) -> None:
    spec = _load_spec(cfg["spec"])
    T = cfg["T"] if cfg["T"] is not None else 1.0 / spec.f_max
    x = synthesize(spec, T, cfg["M"])
    x = apply_noise(x, _noise_from_cfg(cfg), seed=cfg["seed"] or 0)
    Path(cfg["out"]).write_text(timeseries_to_csv(x, header_comment=_stamp(cfg)))
    if cfg["plot_out"]:
        Path(cfg["plot_out"]).write_text(emit_plot_data(x, "spectrum"))


def _cmd_pattern(cfg: dict) -> None:
    method = cfg["method"]
    if method == "blind-sfs":
        res = patterns_mod.blind_sfs(
            cfg["N"], cfg["B"], cfg["fmax"], cfg["d"], cfg["seed"], L=cfg["L"]
        )
    else:
        k = SpectralIndexSet(tuple(cfg["k"]), cfg["L"])
        if method == "exhaustive":
            res = patterns_mod.exhaustive_pattern_search(
                cfg["L"], cfg["p"], k, T=cfg["T"], budget=cfg["budget"]
            )
        else:
            res = patterns_mod.sfs_pattern_search(cfg["L"], cfg["p"], k, T=cfg["T"])
    payload = {
        **_provenance(cfg),
        **res.pattern.to_dict(),
        "method": method,
        "cond": res.cond,
        "evaluations": res.evaluations,
    }
    if res.design_k is not None:
        payload["design_k"] = list(res.design_k.k)
    _write_json(cfg["out"], payload)


def _cmd_cond_hist(cfg: dict) -> None:
    if cfg["k"] is not None:
        vals = patterns_mod.cond_histogram(
            cfg["L"], cfg["p"], cfg["trials"], cfg["seed"],
            k=SpectralIndexSet(tuple(cfg["k"]), cfg["L"]),
        )
    else:
        vals = patterns_mod.cond_histogram(
            cfg["L"], cfg["p"], cfg["trials"], cfg["seed"],
            pattern=SamplingPattern(cfg["L"], tuple(cfg["C"])), N=cfg["N"], d=cfg["d"],
        )
    Path(cfg["out"]).write_text(_csv_text(_stamp(cfg), ["cond"], ([v] for v in vals.tolist())))
    if cfg["plot_out"]:
        Path(cfg["plot_out"]).write_text(emit_plot_data(vals, "histogram"))


def _cmd_reconstruct(cfg: dict) -> None:
    spec = _load_spec(cfg["spec"])
    T = 1.0 / spec.f_max
    x_clean = synthesize(spec, T, cfg["M"])
    x = apply_noise(x_clean, _noise_from_cfg(cfg), seed=cfg["seed"] or 0)
    pattern = _load_pattern(cfg["pattern"]) if cfg["pattern"] is not None else None
    L = pattern.L if pattern is not None else cfg["L"]
    k = spectral_index_from_support(spec.support(), L)
    if pattern is None:
        pattern = patterns_mod.sfs_pattern_search(L, cfg["p"], k, T=T).pattern
    streams = coset_decompose(x, pattern)
    filt = design_filter(L, cfg["Nh"])
    report = reconstruct_time(streams, k, filt, reference=x_clean)
    Path(cfg["out"]).write_text(timeseries_to_csv(report.x_rec, header_comment=_stamp(cfg)))
    payload = {
        **_provenance(cfg),
        "rmse": report.rmse,
        "cond": report.cond,
        "L": L,
        "p": pattern.p,
        "C": list(pattern.C),
        "k": list(k.k),
        "Nh": cfg["Nh"],
        "valid": list(report.valid),
        "filter_meets_spec": report.filter_meets_spec,
    }
    _write_json(cfg["report"] or cfg["out"] + ".json", payload)
    if cfg["plot_out"]:
        Path(cfg["plot_out"]).write_text(emit_plot_data(report.x_rec, "spectrum"))


def _cmd_blind(cfg: dict) -> None:
    pattern = _load_pattern(cfg["pattern"])
    if cfg["streams"] is not None:
        streams = streams_from_csv(Path(cfg["streams"]).read_text(), pattern)
    else:
        x = _synth_input(_load_spec(cfg["spec"]), cfg["M"], cfg["snr_db"], cfg["seed"])
        streams = coset_decompose(x, pattern)
    report = blind_mod.estimate_support(
        streams,
        order_method=cfg["order"],
        localize_method=cfg["localize"],
        q_min=cfg["qmin"],
        q_max=cfg["qmax"],
        epsilon_rel=cfg["epsilon"],
    )
    payload = {
        **_provenance(cfg),
        "q_hat": report.q_hat,
        "k_hat": list(report.k_hat.k),
        "criterion_values": report.order.criterion_values.tolist(),
        "order_method": report.order.method,
        "eigenvalues": report.eigs.values.tolist(),
        "filter_meets_spec": report.filter_meets_spec,
    }
    if report.pseudo_spectrum is not None:
        payload["pseudo_spectrum"] = report.pseudo_spectrum.tolist()
    if report.ls_trace is not None:
        payload["ls_trace"] = report.ls_trace.tolist()
    _write_json(cfg["out"], payload)
    if cfg["plot_out"]:
        Path(cfg["plot_out"]).write_text(emit_plot_data(report.eigs, "eigenvalues"))


def _cmd_sense(cfg: dict) -> None:
    scfg = SensingConfig(
        f_max=cfg["fmax"],
        B=cfg["B"],
        omega=cfg["omega"],
        order_method=cfg["order"],
        localize_method=cfg["localize"],
        p=cfg["p"],
        seed=cfg["seed"],
    )
    if cfg["input"] is not None:
        x = timeseries_from_csv(Path(cfg["input"]).read_text(), T=1.0 / cfg["fmax"])
    else:
        x = _synth_input(_load_spec(cfg["spec"]), cfg["M"], cfg["snr_db"], cfg["seed"])
    report = sense(scfg, x)
    payload = {
        **_provenance(cfg),
        "occupied": list(report.occupied.k),
        "free_channels": [[lo, hi] for lo, hi in report.free_channels],
        "q_hat": report.q_hat,
        "diagnostics": report.diagnostics,
    }
    _write_json(cfg["out"], payload)


def _cmd_pd_sweep(cfg: dict) -> None:
    scfg = SensingConfig(
        f_max=cfg["fmax"],
        B=cfg["B"],
        omega=cfg["omega"],
        order_method=cfg["order"],
        seed=cfg["seed"],
    )
    result = pd_sweep(
        scfg,
        cfg["snr"],
        cfg["cr"],
        trials=cfg["trials"],
        seed=cfg["seed"],
        n_blocks=cfg["blocks"],
        metric=cfg["metric"],
    )
    columns = ["snr_db", "cr", "trials", "detections", "pd", "ci95"]
    rows = ([r.snr_db, r.cr, r.trials, r.detections, r.pd, r.ci95] for r in result.rows)
    Path(cfg["out"]).write_text(_csv_text(_stamp(cfg), columns, rows))
    if cfg["plot_out"]:
        Path(cfg["plot_out"]).write_text(emit_plot_data(result, "pd"))


_HANDLERS = {
    "synth": _cmd_synth,
    "pattern": _cmd_pattern,
    "cond-hist": _cmd_cond_hist,
    "reconstruct": _cmd_reconstruct,
    "blind": _cmd_blind,
    "sense": _cmd_sense,
    "pd-sweep": _cmd_pd_sweep,
}


def run(command: str, config: dict) -> int:
    """Validate the config against the command schema and execute it."""
    if command not in SCHEMAS:
        raise ValidationError(f"unknown command {command!r}")
    resolved = _validate(command, config)
    _HANDLERS[command](resolved)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="subnyq")
    parser.add_argument("--version", action="store_true", help="print version JSON and exit")
    parser.add_argument("--schema", metavar="COMMAND", help="print a command's config schema and exit")
    sub = parser.add_subparsers(dest="command")
    for cmd, schema in SCHEMAS.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("--config", default=None, help="JSON config file (flags override)")
        for name, meta in schema.items():
            flag = "--" + name.replace("_", "-")
            sp.add_argument(flag, dest=name, default=None, help=meta.get("help"))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.version:
        print(json.dumps({"name": "subnyq", "version": __version__}))
        return 0
    if args.schema:
        if args.schema not in SCHEMAS:
            print(json.dumps({"error": f"unknown command {args.schema!r}"}), file=sys.stderr)
            return 2
        print(json.dumps({"command": args.schema, "fields": SCHEMAS[args.schema]}, sort_keys=True, indent=2))
        return 0
    if not args.command:
        parser.print_usage()
        return 2
    try:
        config = json.loads(Path(args.config).read_text()) if args.config else {}
        if not isinstance(config, dict):
            raise ValidationError(f"config {args.config} must hold a JSON object")
        for name in SCHEMAS[args.command]:
            val = getattr(args, name, None)
            if val is not None:
                config[name] = val
        return run(args.command, config)
    except ValidationError as exc:
        print(json.dumps({"error": str(exc), "kind": "validation"}), file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(json.dumps({"error": str(exc), "kind": "runtime"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
