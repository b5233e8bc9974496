"""Command-line entry points.

Four subcommands: gen-synth, train, predict, evaluate. Run options come
from defaults, then an optional flat key=value config file, then flags;
every RunConfig field has a flag of the same name with dashes. Failures
exit nonzero after printing a single machine-parseable line of the form
`error category=<category>: <message>`; numpy's float warnings are off.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .config import RunConfig, build_run_config, parse_config_file
from .errors import LisaError
from .pipeline import GenSynthParams, evaluate, gen_synth, predict, train

_CONFIG_FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
_GEN_DEFAULTS = {f.name: f.default for f in dataclasses.fields(GenSynthParams)}


def _add_run_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for name in _CONFIG_FIELDS:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, metavar="V")


def _run_config(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {
        name: getattr(args, name)
        for name in _CONFIG_FIELDS
        if getattr(args, name, None) is not None
    }
    return build_run_config(file_values, overrides)


def _cmd_train(args: argparse.Namespace) -> int:
    result = train(_run_config(args), emit=print)
    print(f"best_epoch={result.best_epoch} best_dev_f1={result.best_dev_f1:.17g}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    config = _run_config(args)
    predictions = predict(config)
    print(f"wrote {len(predictions)} sentences to {config.predictions_path}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    _, lines = evaluate(_run_config(args))
    for line in lines:
        print(line)
    return 0


def _cmd_gen_synth(args: argparse.Namespace) -> int:
    params = GenSynthParams(**{k: v for k, v in vars(args).items() if k in _GEN_DEFAULTS})
    for path in gen_synth(params):
        print(f"wrote {path}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a malformed or unknown flag is one line too
        self.exit(2, f"error category=config: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lisa-srl",
        description="Train, run and score the syntax-aware semantic role labeler.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synth", help="generate synthetic corpus splits")
    gen.add_argument("--out-dir", required=True)
    for name in ("n_train", "n_dev", "n_test", "seed", "dim"):
        gen.add_argument(f"--{name.replace('_', '-')}", type=int, default=_GEN_DEFAULTS[name])
    gen.add_argument("--heads-error-rate", type=float,
                     default=_GEN_DEFAULTS["heads_error_rate"],
                     help="also write .heads sidecars with this error rate")
    gen.add_argument("--with-contextual", action="store_true",
                     help="also write .ctxl sidecars of 3-layer stacks")
    gen.set_defaults(func=_cmd_gen_synth)

    for name, func, help_text in [
        ("train", _cmd_train, "train a model, keeping the best-dev checkpoint"),
        ("predict", _cmd_predict, "decode a corpus with a saved checkpoint"),
        ("evaluate", _cmd_evaluate, "score a prediction file against gold"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        _add_run_config_flags(cmd)
        cmd.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except LisaError as err:
        print(f"error category={err.category}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error category=io: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
