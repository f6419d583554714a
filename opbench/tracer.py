"""Per-layer spans recorded from outside mindkit.

The tracer replaces the public entry points through which each layer of
`src/mindkit` is reached with wrappers that record a span (name, layer,
start, end, parent, run id) and a few counts.  Nothing in the program
changes: the wrappers are installed into the imported modules of one
benchmark process only.  Spans stay in memory and are written out once,
when the job has ended.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Every span nests inside its caller's span because
every job is single-threaded, so the self times of all layers add up to
the total duration of the top-level spans; the rest of the job's wall
time is `cli` glue (argument parsing, `_trials_from_dataset`, CSV and
manifest writes) or the benchmark's own output check.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("streamkit", "simkit", "session", "datastore", "features", "decoder")

# Entry points through which `cli` (and one layer from another) reaches each
# layer.  Helpers that run thousands of times per job inside a layer, such as
# the per-window quality mapping, are left alone: their time is in their
# caller's span.
SPANS = {
    "streamkit": ("QualityEstimator.ingest_array", "em_noise_quality", "fitting_gate"),
    "simkit": ("gen_trial", "gen_noise_block", "gen_lab_feature_vectors",
               "tasks_from_feature_vectors"),
    "session": ("default_study", "SessionEngine.__init__", "SessionEngine.handle",
                "SessionEngine.day_complete", "SessionEngine.next_pending_scenario",
                "SessionEngine.current_block", "run_questionnaire",
                "questionnaire_result_doc"),
    "datastore": ("load_public_key", "load_private_key", "UploadQueue.__init__",
                  "RecordingDataset.__init__", "store_recording", "store_questionnaire",
                  "flush_uploads", "decrypt_envelope", "read_dataset"),
    "features": ("extract_trial_features", "read_feature_table", "write_feature_table",
                 "r2_map"),
    "decoder": ("learn_prior", "write_prior", "read_prior", "loo_accuracy",
                "mediator_report", "write_results_table"),
}

# Inner calls that are counted but get no span of their own.
COUNTED = {
    "features": ("psd_welch",),
    "decoder": ("fit_map",),
    "datastore": ("encrypt_envelope",),
}


def _ingest_array(counts: Counter, args: tuple, result) -> None:
    counts["streamkit.windows"] += len(result)
    counts["streamkit.samples"] += len(args[1])


def _flush_uploads(counts: Counter, args: tuple, result) -> None:
    counts["datastore.uploads"] += sum(1 for r in result if r.ok)
    counts["datastore.upload_failures"] += sum(1 for r in result if not r.ok)


def _encrypt_envelope(counts: Counter, args: tuple, result) -> None:
    counts["datastore.bytes_sealed"] += len(args[0])


def _decrypt_envelope(counts: Counter, args: tuple, result) -> None:
    blob = args[0]
    counts["datastore.bytes_opened"] += len(blob) if isinstance(blob, bytes) \
        else len(blob.to_bytes())


def _learn_prior(counts: Counter, args: tuple, result) -> None:
    info = result[1]
    counts["decoder.prior_iterations"] = info.iterations_run
    counts["decoder.prior_residual"] = info.residual
    counts["decoder.prior_converged"] = int(info.converged)


HOOKS = {
    "streamkit.QualityEstimator.ingest_array": _ingest_array,
    "datastore.flush_uploads": _flush_uploads,
    "datastore.encrypt_envelope": _encrypt_envelope,
    "datastore.decrypt_envelope": _decrypt_envelope,
    "decoder.learn_prior": _learn_prior,
}


class Tracer:
    """Spans and counts of one traced job."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[tuple | None] = []  # (name, layer, start, end, parent)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._paused = False

    @contextmanager
    def paused(self):
        """Calls made inside this block (the benchmark's checks) are not traced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def span(self, layer: str, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, layer, start, end, parent)
            self.calls[name] += 1
            if hook:
                hook(self.counts, args, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if not self._paused:
                self.calls[name] += 1
                if hook:
                    hook(self.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every entry point in SPANS and COUNTED inside mindkit."""
        modules = {layer: importlib.import_module(f"mindkit.{layer}") for layer in LAYERS}
        modules["cli"] = importlib.import_module("mindkit.cli")
        replaced = {}
        for table, make in ((SPANS, self.span), (COUNTED, lambda _l, n, f: self.counter(n, f))):
            for layer, attrs in table.items():
                for attr in attrs:
                    owner = modules[layer]
                    *outer, leaf = attr.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, leaf)
                    wrapped = make(layer, f"{layer}.{attr}", original)
                    setattr(owner, leaf, wrapped)
                    replaced[id(original)] = wrapped
        # Functions imported by name into another module, such as
        # `simkit.extract_trial_features`, are separate references.
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "fields": ["name", "layer", "start", "end", "parent", "run_id"],
            "spans": [[*span, self.run_id] for span in self.spans],
        }))

    def metrics(self, wall_s: float, check_s: float, import_s: float) -> dict[str, float]:
        """Per-layer metrics of the traced job whose wall time was `wall_s`."""
        busy: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, _layer, start, end, parent in self.spans:
            busy[name] += end - start
            if parent is not None:
                child[parent] += end - start
        layer_self = {layer: 0.0 for layer in LAYERS}
        top_level = 0.0
        for sid, (_name, layer, start, end, parent) in enumerate(self.spans):
            layer_self[layer] += (end - start) - child[sid]
            if parent is None:
                top_level += end - start
        c, n = self.counts, self.calls

        def ratio(a: float, b: float, scale: float = 1.0) -> float:
            return scale * a / b if b else 0.0

        ingest_s = busy["streamkit.QualityEstimator.ingest_array"]
        tasks = n["decoder.loo_accuracy"]
        out = {
            "streamkit.ingest_s": ingest_s,
            "streamkit.windows": c["streamkit.windows"],
            "streamkit.samples": c["streamkit.samples"],
            "streamkit.us_per_window": ratio(ingest_s, c["streamkit.windows"], 1e6),
            "streamkit.noise_check_s": busy["streamkit.em_noise_quality"],
            "simkit.gen_trial_s": busy["simkit.gen_trial"],
            "simkit.trials": n["simkit.gen_trial"],
            "simkit.gen_noise_s": busy["simkit.gen_noise_block"],
            "simkit.noise_blocks": n["simkit.gen_noise_block"],
            "session.handle_s": busy["session.SessionEngine.handle"],
            "session.events": n["session.SessionEngine.handle"],
            "datastore.seal_s": busy["datastore.store_recording"]
            + busy["datastore.store_questionnaire"],
            "datastore.bytes_sealed": c["datastore.bytes_sealed"],
            "datastore.flush_s": busy["datastore.flush_uploads"],
            "datastore.uploads": c["datastore.uploads"],
            "datastore.upload_failures": c["datastore.upload_failures"],
            "datastore.open_s": busy["datastore.decrypt_envelope"],
            "datastore.parse_s": busy["datastore.read_dataset"],
            "datastore.bytes_opened": c["datastore.bytes_opened"],
            "features.extract_s": busy["features.extract_trial_features"],
            "features.trials": n["features.extract_trial_features"],
            "features.welch_calls": n["features.psd_welch"],
            "features.welch_per_trial": ratio(n["features.psd_welch"],
                                              n["features.extract_trial_features"]),
            "decoder.loo_s": busy["decoder.loo_accuracy"],
            "decoder.tasks": tasks,
            "decoder.fit_map_calls": n["decoder.fit_map"],
            "decoder.solves_per_task": ratio(n["decoder.fit_map"], tasks),
            "decoder.prior_s": busy["decoder.learn_prior"],
            "decoder.prior_iterations": c["decoder.prior_iterations"],
            "decoder.prior_residual": c["decoder.prior_residual"],
            "decoder.prior_converged": c["decoder.prior_converged"],
            "cli.import_s": import_s,
            "cli.self_s": wall_s - check_s - top_level,
            "bench.check_s": check_s,
            "trace.wall_s": wall_s,
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out
