"""Run ``morphcomplex run-all`` in this process, optionally traced.

Usage (with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/tracer.py RESULT.json -- run-all --config CFG --out DIR --jobs 1
    python3 perfbench/tracer.py --plain RESULT.json -- run-all ...

The traced mode replaces the program's public functions, and the module
attributes through which ``cli``, ``pipeline``, ``measures`` and
``inflection`` call them, with wrappers that record one span per call
(name, start, end, parent) and counters taken from arguments and results.
Spans stay in memory and are written to RESULT.json when the run ends.
``--plain`` runs the same command without wrappers, for the overhead figure.
Nothing in the program is edited; run with ``--jobs 1`` so every span is
in this process.
"""

from __future__ import annotations

import functools
import json
import logging
import pickle
import sys
import time
from collections import Counter


class Tracer:
    """Spans held in memory; the open-span stack gives each span its parent."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.stack: list[int] = [-1]
        self.counters: Counter[str] = Counter()

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace ``owner.attr`` with a traced wrapper.

        ``count(args, kwargs, result)`` runs after the span closes and is
        itself recorded as a ``trace.count`` span under the enclosing span,
        so its cost is subtracted from that span's self and busy time and
        shows only in the overhead figure.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1]))
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])
            if count is not None:
                count_start = clock()
                count(args, kwargs, result)
                spans.append(("trace.count", count_start, clock(), stack[-1]))
            return result

        setattr(owner, attr, traced)


class _FallbackCounter(logging.Handler):
    """Counts the ``distort`` retry-budget warnings the measures module logs."""

    def __init__(self, counters: Counter):
        super().__init__(logging.WARNING)
        self.counters = counters

    def emit(self, record: logging.LogRecord):
        if record.getMessage().startswith("distort:"):
            self.counters["measures.ws.fallbacks"] += 1


def install(tracer: Tracer):
    """Wrap the public functions of every traced layer of ``morphcomplex``.

    ``analysis`` and ``config`` functions are wrapped where ``pipeline`` and
    ``cli`` imported them by name, which is the only way they are called.
    """
    from morphcomplex import cli, inflection, measures, pipeline, sampling, svgplot, wals

    c = tracer.counters

    def add(key: str, amount: float):
        c[key] += amount

    def parsed(args, kwargs, tb):
        add("conllu.tokens", tb.n_tokens)
        add("conllu.sentences", len(tb.sentences))
        # The measure stage pickles each parsed treebank into its pool payload.
        add("conllu.pickle_mb", len(pickle.dumps(tb, pickle.HIGHEST_PROTOCOL)) / 2**20)

    def extracted(args, kwargs, instances):
        # Features at the largest n-gram order the hyperparameter search draws.
        top = inflection.IASearchConfig().ngram_range[1]
        add("inflection.instances", len(instances))
        add("inflection.classes", len({inflection.derive_edit_script(i.lemma, i.form) for i in instances}))
        add("inflection.features", len({
            f for i in instances for f in inflection.featurize(i.lemma, i.feature_bundle, top)
        }))

    def trained(args, kwargs, model):
        instances, params = args[0], args[1]
        add("inflection.train.calls", 1)
        add("inflection.train.steps", params.epochs * len(instances))

    def distorted(args, kwargs, rows):
        add("measures.ws.types", len({w for row in rows for w in row}))

    def ridged(args, kwargs, report):
        n_rows = len(report.predictions)
        add("analysis.ridge.targets", 1)
        # One solve per alpha in each inner LOO, plus the refit, per held-out row.
        add("analysis.ridge.solves", n_rows * (len(report.alpha_grid) + 1))

    def encoded(args, kwargs, design):
        c["wals.columns"] = max(c["wals.columns"], len(design.column_names))

    def sampled(args, kwargs, sample):
        add("sampling.samples", 1)

    def predicted(args, kwargs, form):
        add("inflection.predict.calls", 1)

    w = tracer.wrap
    w(cli, "load_config", "config.load")
    w(cli, "apply_overrides", "config.load")
    w(cli, "run_measure", "pipeline.measure")
    w(cli, "run_analyze", "pipeline.analyze")
    w(cli, "run_plot", "pipeline.plot")
    w(pipeline, "read_manifest", "conllu.manifest")
    w(pipeline, "parse_conllu_file", "conllu.parse", parsed)
    w(pipeline, "apply_exclusions", "conllu.exclusions")
    w(pipeline, "run_repetitions", "sampling.repetitions")
    w(sampling, "bootstrap_sample", "sampling.bootstrap", sampled)
    w(pipeline, "bootstrap_sample", "sampling.bootstrap", sampled)
    for attr, name in (
        ("ttr", "ttr"), ("word_structure_information", "ws"), ("word_entropy", "wh"),
        ("lemma_entropy", "lh"), ("msp", "msp"), ("inflectional_synthesis", "is"),
        ("feature_entropy", "mfh"),
    ):
        w(measures, attr, f"measures.{name}")
    w(measures, "distort", "measures.ws.distort", distorted)
    w(measures, "compression_ratio", "measures.ws.compress")
    w(pipeline, "extract_instances", "inflection.extract", extracted)
    w(pipeline, "cross_validate", "inflection.cross_validate")
    w(inflection, "train", "inflection.train", trained)
    w(inflection, "predict", "inflection.predict", predicted)
    w(pipeline, "correlation_matrix", "analysis.correlation")
    w(pipeline, "pca", "analysis.pca")
    w(pipeline, "standardize", "analysis.standardize")
    w(pipeline, "ridge_loocv", "analysis.ridge", ridged)
    w(wals, "load_wals", "wals.load")
    w(wals, "encode", "wals.encode", encoded)
    for attr in ("measure_panels", "pca_scatter", "error_reduction_bars"):
        w(svgplot, attr, "svgplot")
    logging.getLogger("morphcomplex.measures").addHandler(_FallbackCounter(c))


def main(argv: list[str]) -> int:
    plain = argv[0] == "--plain"
    if plain:
        argv = argv[1:]
    out_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py [--plain] RESULT.json -- run-all ARGS")

    start = time.perf_counter()
    import morphcomplex.cli as cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    if not plain:
        install(tracer)
    run_start = time.perf_counter()
    status = cli.main(cli_args)
    run_s = time.perf_counter() - run_start
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(
            {
                "status": status,
                "import_s": import_s,
                "run_s": run_s,
                "run_start": run_start,
                "spans": tracer.spans,
                "counters": dict(tracer.counters),
            },
            f,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
