"""Spans recorded around ipinn's public functions, from outside the package.

`install` replaces each target function, in every loaded ipinn module that
holds it, with a wrapper that records (name, start, end, parent, attrs).
Spans stay in memory until `dump` writes them as JSON.  A target that no
longer exists is skipped, so its metric goes unreported instead of failing
the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, function) pairs; a span is named "<module>.<function>"
TARGETS = (
    ("training", "loss_and_grad"),
    ("training", "vanilla_loss"),
    ("training", "invariant_loss"),
    ("training", "adam_step"),
    ("training", "train"),
    ("harness", "run_cell"),
    ("harness", "build_report"),
    ("harness", "evaluate_params"),
    ("harness", "emit_error_series"),
    ("harness", "summarize"),
    ("harness", "load_report"),
    ("network", "mlp_values"),
    ("network", "save_weights"),
    ("reference", "exact_eval"),
    ("reference", "oscillator_reference"),
)


def _pair_of_spec(spec) -> str | None:
    from ipinn.problems import REGISTRY
    for problem in REGISTRY.values():
        for kind in ("invariant", "vanilla"):
            if getattr(problem, kind) is spec:
                return f"{problem.name}-{kind}"
    return None


def _attrs(name: str, args, kwargs, result) -> dict:
    """Per-call attributes that the metrics group by."""
    if name == "training.loss_and_grad":
        return {"pair": _pair_of_spec(args[1] if len(args) > 1 else kwargs["spec"])}
    if name in ("training.vanilla_loss", "training.invariant_loss"):
        problem = args[1] if len(args) > 1 else kwargs["problem"]
        return {"pair": f"{problem.name}-{name.split('.')[1].split('_')[0]}"}
    if name == "training.train":
        return {"epochs": len(result[1])}
    return {}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.originals: dict[str, object] = {}

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, {}]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[4] = _attrs(name, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        import ipinn  # noqa: F401  (loads every module the targets live in)
        import ipinn.cli  # noqa: F401
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "ipinn" or key.startswith("ipinn."))]
        for module_name, fn_name in TARGETS:
            home = sys.modules.get(f"ipinn.{module_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            name = f"{module_name}.{fn_name}"
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s for s in self.spans if s[2] is not None], fh)
