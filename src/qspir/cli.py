"""Command-line front end: rate tables, round simulation, security audits.

Subcommands:
  rates     evaluate the achievable-rate formulas over a parameter grid
  simulate  run seeded protocol rounds and report decode outcomes
  audit     run the executable security lemmas
  selftest  quick internal consistency check

All outputs are deterministic for a fixed invocation: CSV artifacts are
byte-identical across runs (audit wall-clock times appear only in the
stdout report, never in files).  Exit codes: 0 success, 1 property failure
(decode failure or a failed lemma), 2 usage error, or an audit with no
failed lemma that left some lemma unchecked over the enumeration budget.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .errors import BudgetExceeded, QspirError, SetTooLarge
from .mi import AuditBudget
from .plan import Model, SchemeConfig, plan_regime
from .protocol import expected_dits, run_round, scheme_points
from .rates import CSV_HEADER, sweep, theorem_rate
from .threats import BUILTIN_STRATEGIES, ThreatConfig
from .rng import Stream

SIMULATE_HEADER = [
    "model", "N", "K", "X", "T", "E", "U", "B", "q", "regime", "trials",
    "failures", "measured_rate_num", "measured_rate_den",
    "accepted_byzantine_sets_histogram",
]

AUDIT_HEADER = ["lemma", "status", "states"]

_BREAK_FLAGS = {
    "break_storage": "storage-security",
    "break_query": "query-privacy",
    "break_mask_byz": "masking-vs-byzantine",
    "break_mask_user": "masking-vs-user",
    "break_symmetric": "symmetric-privacy",
    "break_eaves": "eavesdropper",
}

_CONFIG_KEYS = {
    "model", "N", "K", "X", "T", "E", "U", "B", "q", "trials", "seed",
    "strategy", "eaves-up", "eaves-down", "byzantine", "unresponsive",
    "out", "workers",
}


# ----------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------


def _int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma list of integers: {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qspir", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp, grid: bool):
        conv = _int_list if grid else int
        sp.add_argument("--model", default="xeutspir",
                        help="xeutspir | xbeutspir-static | xbeutspir-dynamic"
                             + (" | all (comma lists allowed)" if grid else ""))
        for flag, default in (("--N", 4), ("--X", 0), ("--T", 0),
                              ("--E", 0), ("--U", 0), ("--B", 0)):
            sp.add_argument(flag, type=conv, default=[default] if grid else default)
        sp.add_argument("--K", type=int, default=2, help="message count")
        sp.add_argument("--q", type=int, default=257, help="prime field size")
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
        sp.add_argument("--config", default=None,
                        help="flat key=value file; explicit flags override it")

    sp = sub.add_parser("rates", help="achievable-rate table over a grid")
    common(sp, grid=True)

    sp = sub.add_parser("simulate", help="seeded protocol rounds")
    common(sp, grid=False)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategy", default="honest-zero",
                    help="Byzantine strategy tag: " + ", ".join(BUILTIN_STRATEGIES))
    sp.add_argument("--eaves-up", default="random",
                    help='comma list of 0-based server indices, or "random"')
    sp.add_argument("--eaves-down", default="random")
    sp.add_argument("--byzantine", default="random",
                    help='comma list or "random"; lists longer than B model '
                         "over-threat attacks and are expected to fail")
    sp.add_argument("--unresponsive", default="random")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes; results reduce in trial order")

    sp = sub.add_parser("audit", help="run the executable security lemmas")
    common(sp, grid=False)
    sp.add_argument("--default-suite", action="store_true", default=None,
                    help="run every lemma at its micro configuration "
                         "(implied when no scheme flags are given)")
    for flag in ("--break-storage", "--break-query", "--break-mask-byz",
                 "--break-mask-user", "--break-symmetric", "--break-eaves"):
        sp.add_argument(flag, action="store_true",
                        help="run this lemma with its documented mutant "
                             "(it must then fail)")

    sub.add_parser("selftest", help="quick internal consistency check")
    return p


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser,
                       argv: list) -> set:
    """key=value file; explicitly passed flags win over file values.
    Returns the set of keys the file actually supplied."""
    applied = set()
    if getattr(args, "config", None) is None:
        return applied
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                for a in argv if a.startswith("--")}
    try:
        text = open(args.config, encoding="utf-8").read()
    except OSError as exc:
        parser.error(f"cannot read config file: {exc}")
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            parser.error(f"{args.config}:{line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            parser.error(f"{args.config}:{line_no}: unknown key {key!r}")
        attr = key.replace("-", "_")
        if attr in explicit or not hasattr(args, attr):
            continue
        current = getattr(args, attr)
        if isinstance(current, list):
            value = _int_list(value)
        elif isinstance(current, int) and not isinstance(current, bool):
            value = int(value)
        setattr(args, attr, value)
        applied.add(key)
    return applied


def _write_csv(path, header, rows) -> None:
    def emit(fh):
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)

    if path is None:
        buf = io.StringIO()
        emit(buf)
        sys.stdout.write(buf.getvalue())
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            emit(fh)


# ----------------------------------------------------------------------
# rates
# ----------------------------------------------------------------------


def cmd_rates(args) -> int:
    if args.model == "all":
        models = [m.value for m in Model]
    else:
        models = [m.strip() for m in args.model.split(",")]
    points = sweep(models, args.N, args.X, args.T, args.E, args.U, args.B,
                   K=args.K, q=args.q)
    _write_csv(args.out, CSV_HEADER, [pt.csv_row() for pt in points])
    return 0


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _parse_set(text: str):
    return None if text == "random" else tuple(_int_list(text))


def _trial_threat(cfg: SchemeConfig, seed: int, trial: int, strategy: str,
                  fixed_sets) -> ThreatConfig:
    eaves_up, eaves_down, byz, unresp = fixed_sets
    base = ThreatConfig.random(cfg, Stream(seed, f"t{trial}/placement"),
                               strategy=strategy)
    if (eaves_up, eaves_down, byz, unresp) == (None, None, None, None):
        return base
    up = base.eaves_up if eaves_up is None else frozenset(eaves_up)
    down = base.eaves_down if eaves_down is None else frozenset(eaves_down)
    if cfg.model is Model.XBEUTSPIR_STATIC:
        if eaves_up is not None and eaves_down is None:
            down = up
        elif eaves_down is not None and eaves_up is None:
            up = down
    return ThreatConfig.make(
        cfg,
        colluding=base.colluding,
        communicating=base.communicating,
        eaves_up=up,
        eaves_down=down,
        byzantine=base.byzantine if byz is None else byz,
        unresponsive=base.unresponsive if unresp is None else unresp,
        strategy=strategy,
        # explicit sets may exceed the design bounds on purpose
        strict=(byz is None and unresp is None),
    )


def _simulate_trial(packed):
    cfg, seed, trial, strategy, fixed_sets = packed
    threat = _trial_threat(cfg, seed, trial, strategy, fixed_sets)
    try:
        tr = run_round(cfg, seed, trial, threat=threat)
    except QspirError:
        return trial, False, "!"
    ok = tr.result.w_theta == expected_dits(tr.W, tr.theta)
    acc = tr.result.accepted_set
    label = "-" if acc is None else "+".join(str(j) for j in acc)
    return trial, ok, label


def _scheme_config(args) -> SchemeConfig:
    return SchemeConfig(model=Model.parse(args.model), N=args.N, K=args.K,
                        X=args.X, T=args.T, E=args.E, U=args.U, B=args.B,
                        q=args.q)


def cmd_simulate(args) -> int:
    if args.trials < 0:
        raise ValueError(f"--trials must be nonnegative, got {args.trials}")
    cfg = _scheme_config(args)
    plan = plan_regime(cfg)
    # a field too small for the evaluation points, or more erasures than
    # the layout reserves slots for, is a configuration error, not a
    # per-trial protocol failure
    scheme_points(cfg, plan)
    fixed_sets = (_parse_set(args.eaves_up), _parse_set(args.eaves_down),
                  _parse_set(args.byzantine), _parse_set(args.unresponsive))
    unresp = fixed_sets[3]
    if unresp is not None and len(set(unresp)) > cfg.U:
        raise SetTooLarge(f"--unresponsive names {len(set(unresp))} servers "
                          f"but the scheme tolerates U = {cfg.U}")
    jobs = [(cfg, args.seed, t, args.strategy, fixed_sets)
            for t in range(args.trials)]
    if args.workers > 1:
        # one chunk is pickled as a whole, so its trials share one config
        # object and with it the worker's cached schemes
        chunk = max(1, len(jobs) // (4 * args.workers))
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_simulate_trial, jobs, chunksize=chunk))
    else:
        results = [_simulate_trial(job) for job in jobs]

    failures = sum(1 for _, ok, _ in results if not ok)
    histogram = {}
    for _, _, label in results:
        histogram[label] = histogram.get(label, 0) + 1
    hist_text = ";".join(f"{k}:{v}" for k, v in sorted(histogram.items()))
    rate = Fraction(plan.L1 + plan.L2, cfg.N)
    row = [cfg.model.value, cfg.N, cfg.K, cfg.X, cfg.T, cfg.E, cfg.U, cfg.B,
           cfg.q, plan.regime, args.trials, failures,
           rate.numerator, rate.denominator, hist_text]
    _write_csv(args.out, SIMULATE_HEADER, [row])
    return 1 if failures else 0


# ----------------------------------------------------------------------
# audit
# ----------------------------------------------------------------------


def cmd_audit(args) -> int:
    from . import audit as audit_mod

    broken = {lemma for flag, lemma in _BREAK_FLAGS.items()
              if getattr(args, flag, False)}
    scheme_keys = ("model", "N", "K", "X", "T", "E", "U", "B", "q")
    explicit_scheme = any(
        f"--{name}" in args._raw_argv or f"--{name}=" in " ".join(args._raw_argv)
        for name in scheme_keys
    ) or bool(args._config_keys & set(scheme_keys))
    use_default = args.default_suite or not explicit_scheme

    rows = []
    if use_default:
        configs = audit_mod.default_suite_configs()
    else:
        cfg = _scheme_config(args)
        configs = {lemma: cfg for lemma in audit_mod.default_suite_configs()}

    for lemma, cfg in configs.items():
        mutation = audit_mod.DEFAULT_MUTANTS[lemma] if lemma in broken else None
        t0 = time.perf_counter()
        try:
            report = audit_mod.run_audit(lemma, cfg, mutation=mutation,
                                         budget=AuditBudget())
            if report.mode == "n/a":
                status = "n/a"
            else:
                status = "pass" if report.passed else "fail"
            states = report.states
        except BudgetExceeded:
            status, states = "budget-exceeded", 0
        wall = time.perf_counter() - t0
        print(f"{lemma:24s} {status:16s} states={states:<10d} {wall:8.2f}s")
        rows.append([lemma, status, states])
    if args.out:
        _write_csv(args.out, AUDIT_HEADER, rows)
    statuses = [status for _, status, _ in rows]
    if "fail" in statuses:
        return 1
    unchecked = statuses.count("budget-exceeded")
    if unchecked:
        # the run did not check what was asked, so it is not a success
        print(f"error: {unchecked} lemma(s) not checked: the enumeration "
              "exceeds the budget (QSPIR_BUDGET)", file=sys.stderr)
        return 2
    return 0


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------


def cmd_selftest(args) -> int:
    import numpy as np

    from .field import FqMatrix
    from .mi import mi_exact
    from .nsumbox import check_sso
    from .protocol import build_scheme

    ok = True

    def check(label: str, cond: bool):
        nonlocal ok
        print(f"{'ok  ' if cond else 'FAIL'} {label}")
        ok = ok and cond

    a = np.repeat(np.arange(3), 5)
    b = np.tile(np.arange(5), 3)
    check("exact MI: independent pair is zero", mi_exact(a, b).zero)
    check("exact MI: copied pair is nonzero",
          not mi_exact(np.arange(3), np.arange(3)).zero)

    cfg = SchemeConfig(model=Model.parse("xeutspir"), N=4, K=2, X=1, T=1,
                       E=0, U=0, B=0, q=257)
    pt = theorem_rate(cfg)
    pl = plan_regime(cfg)
    check("rate formula agrees with the constructed layout",
          pt.rate == Fraction(pl.L1 + pl.L2, cfg.N))
    tr = run_round(cfg, seed=11, trial=0)
    check("honest round decodes the requested dits",
          tr.result.w_theta == expected_dits(tr.W, tr.theta))

    bcfg = SchemeConfig(model=Model.parse("xbeutspir-static"), N=10, K=2,
                        X=2, T=2, E=0, U=1, B=1, q=257)
    box = build_scheme(bcfg, plan_regime(bcfg), ()).box
    N, q = bcfg.N, bcfg.q
    check("transfer box: dropped block self-orthogonal, stack of rank 2N",
          check_sso(box.g) and box.generator.rank() == 2 * N)
    check("transfer box selects the second column block",
          box.gprime.mul(box.generator)
          == FqMatrix.zeros(N, N, q).hstack(FqMatrix.identity(N, q)))
    fails = 0
    for t in range(5):
        tb = run_round(bcfg, seed=17, trial=t)
        fails += tb.result.w_theta != expected_dits(tb.W, tb.theta)
    check("Byzantine rounds decode after correction", fails == 0)

    from .audit import audit_query_privacy, audit_storage_security, _micro
    check("storage lemma at micro scale",
          audit_storage_security(
              _micro("xeutspir", N=4, K=2, X=2, T=1, E=0, U=0, B=0, q=5)
          ).passed)
    check("query lemma at micro scale",
          audit_query_privacy(
              _micro("xeutspir", N=4, K=2, X=1, T=2, E=0, U=0, B=0, q=5)
          ).passed)
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._raw_argv = argv
    try:
        args._config_keys = _apply_config_file(args, parser, argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.subcommand == "rates":
            return cmd_rates(args)
        if args.subcommand == "simulate":
            return cmd_simulate(args)
        if args.subcommand == "audit":
            return cmd_audit(args)
        return cmd_selftest(args)
    except (QspirError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
