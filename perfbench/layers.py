"""Which library functions the traced run wraps, and the per-layer metrics
derived from the spans they record.

Each traced name is `<module>.<what>`; PER_LAYER says what each metric
counts.  Every metric is reported on every workload
and is 0 where its layer does not run.
"""

from __future__ import annotations

import weakref
from typing import Dict

import numpy as np

from tracer import Tracer

VARIANTS = ("plain_mlp", "sym_haar", "sym_recursive", "canonical_deterministic")
SUITES = ("groups", "cosets", "symmetrise", "gradients")

_DRAWS = ("normal", "uniform", "integers", "permutation", "choice_index")
_NN = {"mlp_forward": "nn.mlp_forward", "mlp_backward": "nn.mlp_backward",
       "gram_schmidt_forward": "nn.gs_forward",
       "gram_schmidt_backward": "nn.gs_backward", "adam_step": "nn.adam_step"}
_BUNDLES = ("coset_bundle_trivial", "coset_bundle_orthogonal_in_gl",
            "coset_bundle_semidirect")


def _rows(arg_index):
    def work(args, kwargs):
        x = args[arg_index]
        return float(len(x)) if hasattr(x, "__len__") else 1.0
    return work


def _leading_dim(args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs.get("shape", ())
    return float(shape[0]) if isinstance(shape, tuple) and shape else 1.0


def install(tracer: Tracer) -> None:
    """Wrap the layers' functions; tracer.restore() undoes it."""
    from equisym import bench, checks, equivariance, groups, nn, stochmap, symcore

    # Streams: built, drawn from, and whether a built stream ever drew.
    built, used = weakref.WeakSet(), weakref.WeakSet()

    def mark_built(args, kwargs, result):
        built.add(args[0])

    def mark_used(args, kwargs, result):
        stream = args[0]
        if stream in built and stream not in used:
            used.add(stream)
            tracer.counts["streams_used"] += 1

    tracer.wrap(stochmap.RandomStream, "__init__", "stochmap.stream_new", after=mark_built)
    for method in _DRAWS:
        tracer.wrap(stochmap.RandomStream, method, "stochmap.draw",
                    work=_leading_dim, after=mark_used)
    for module in (stochmap, checks):
        tracer.wrap(module, "enumerate_distribution", "stochmap.enumerate")

    # Benchmark model and loops.
    tracer.wrap(bench, "train", "bench.train")
    tracer.wrap(bench, "sample_batch", "bench.sample_batch", work=lambda a, k: float(a[1]))
    tracer.wrap(bench, "_haar_batch", "bench.haar_batch")
    tracer.wrap(bench, "equivariance_gap", "bench.equivariance_gap")
    model = bench.InversionModel
    tracer.wrap(model, "_draw_coset", "bench.draw_coset")
    tracer.wrap(model, "draw", "bench.draw", work=_rows(2))
    tracer.wrap(model, "objective_and_grads", "bench.objective")

    for attr, name in _NN.items():
        tracer.wrap(nn, attr, name, work=_rows(1) if attr == "mlp_forward" else None)

    # Group-level primitives, under every name the library calls them by.
    for module in (groups, symcore):
        tracer.wrap(module, "haar_sample", "groups.haar_sample")
    tracer.wrap(groups, "_haar_orthogonal", "groups.haar_sample")
    for module in (groups, checks):
        tracer.wrap(module, "element_distance", "groups.element_distance")

    def trace_bundle(bundle):  # q and s are closures built per bundle
        bundle.q = tracer.traced(bundle.q, "equivariance.coset_map")
        bundle.s = tracer.traced(bundle.s, "equivariance.coset_map")

    for module in (equivariance, checks):
        for attr in _BUNDLES:
            tracer.on_result(module, attr, trace_bundle)

    def trace_sampler(sym):
        sym.sampler = tracer.traced(sym.sampler, "symcore.sampler")

    for module in (symcore, checks):
        tracer.on_result(module, "symmetrise", trace_sampler)

    for suite in SUITES:
        tracer.wrap_item(checks.SUITES, suite, f"checks.suite.{suite}")


# name -> (unit, better, meaning); the order is the report order
PER_LAYER = {
    "stochmap.streams_per_step": ("count", "lower", "RandomStream objects built per training step"),
    "stochmap.stream_new_us": ("us", "lower", "time to build one RandomStream"),
    "stochmap.streams_unused_ratio": ("ratio", "lower", "streams that never draw over streams built"),
    "stochmap.streams_per_eval": ("count", "lower", "RandomStream objects built per evaluate call"),
    "stochmap.draw_us": ("us", "lower", "time of one draw from a stream"),
    "stochmap.enumerate_s": ("s", "lower", "time in exact enumeration per round"),
    "bench.sample_batch_us": ("us", "lower", "time of one sample_batch call"),
    "bench.sample_batch_accept_ratio": ("ratio", "higher", "rows kept over rows drawn by sample_batch"),
    "bench.haar_batch_us": ("us", "lower", "time of one Haar batch"),
    "bench.draw_coset_self_us": ("us", "lower", "self time of one coset draw"),
    "bench.gs_retries": ("count", "lower", "extra Gram-Schmidt attempts per round"),
    "bench.objective_self_us": ("us", "lower", "self time of one objective_and_grads call"),
    "bench.train_self_us_per_step": ("us", "lower", "self time of the train loop per step"),
    "bench.draw_calls": ("count", "lower", "model draw calls per round"),
    "bench.draw_rows_per_call": ("count", "higher", "rows per model draw call"),
    "bench.equivariance_gap_us": ("us", "lower", "time of one equivariance_gap call"),
    "nn.mlp_forward_us": ("us", "lower", "time of one MLP forward"),
    "nn.mlp_backward_us": ("us", "lower", "time of one MLP backward"),
    "nn.gs_forward_us": ("us", "lower", "time of one Gram-Schmidt forward"),
    "nn.gs_backward_us": ("us", "lower", "time of one Gram-Schmidt backward"),
    "nn.adam_step_us": ("us", "lower", "time of one Adam step"),
    "nn.mlp_forward_per_step": ("count", "lower", "MLP forwards per training step"),
    "nn.mlp_backward_per_step": ("count", "lower", "MLP backwards per training step"),
    "nn.gs_forward_per_step": ("count", "lower", "Gram-Schmidt forwards per training step"),
    "nn.gs_backward_per_step": ("count", "lower", "Gram-Schmidt backwards per training step"),
    "nn.adam_step_per_step": ("count", "lower", "Adam steps per training step"),
    "nn.mlp_forward_rows_per_call": ("count", "higher", "rows per MLP forward"),
    "groups.haar_sample_calls": ("count", "lower", "Haar samples per round"),
    "groups.haar_sample_us": ("us", "lower", "time of one Haar sample"),
    "groups.element_distance_calls": ("count", "lower", "element_distance calls per round"),
    "groups.element_distance_us": ("us", "lower", "time of one element_distance call"),
    "equivariance.coset_map_calls": ("count", "lower", "coset map q/s calls per round"),
    "equivariance.coset_map_us": ("us", "lower", "time of one q or s call"),
    "symcore.sampler_calls": ("count", "lower", "symmetrised-map draws per round"),
    "symcore.sampler_us": ("us", "lower", "time of one symmetrised-map draw"),
    **{f"checks.suite_s.{s}": ("s", "lower", f"time of the {s} suite") for s in SUITES},
    "checks.rows_failed": ("count", "lower", "check rows that fail per round"),
    **{f"bench.train_step_ms.{v}": ("ms", "lower", f"untraced training step, {v}") for v in VARIANTS},
    **{f"bench.train_objective.{v}": ("objective", "lower", f"mean objective over the last tenth of steps, {v}")
       for v in VARIANTS},
    **{f"bench.evaluate_s.{v}": ("s", "lower", f"untraced evaluate call, {v}") for v in VARIANTS},
    **{f"trace.overhead_ms_per_step.{v}": ("ms", "lower", f"traced minus untraced training step, {v}")
       for v in VARIANTS},
    **{f"trace.overhead_s_per_eval.{v}": ("s", "lower", f"traced minus untraced evaluate call, {v}")
       for v in VARIANTS},
    "trace.overhead_ratio": ("ratio", "lower", "traced over untraced round time, minus 1"),
    "trace.spans_per_round": ("count", "lower", "spans recorded per traced round"),
}

# Metrics that must repeat exactly between traced rounds on the same inputs.
COUNTERS = tuple(name for name, (unit, _, _) in PER_LAYER.items()
                 if unit in ("count", "ratio") and not name.startswith("trace.overhead"))


def round_metrics(tracer: Tracer, steps: int, evals: int) -> Dict[str, float]:
    """Per-layer metrics of one traced round.

    steps: training steps the round ran; evals: evaluate calls it made.
    """
    a = tracer.arrays()
    ids = a["name_id"]
    parent_ids = np.where(a["parent"] >= 0, ids[a["parent"]], -1)
    known = {name: i for i, name in enumerate(tracer.names)}

    def sel(name, within=None):
        m = ids == known.get(name, -2)
        return m if within is None else m & (parent_ids == known.get(within, -2))

    def count(name):
        return float(np.count_nonzero(sel(name)))

    def mean_us(name, key="dur"):
        m = sel(name)
        return float(a[key][m].mean() * 1e6) if m.any() else 0.0

    def total_s(name):
        return float(a["dur"][sel(name)].sum())

    def per(x, n):
        return x / n if n else 0.0

    def mean_work(name):
        m = sel(name)
        return float(a["work"][m].mean()) if m.any() else 0.0

    built = count("stochmap.stream_new")
    drawn_in_sample = a["work"][sel("stochmap.draw", within="bench.sample_batch")].sum()
    kept = a["work"][sel("bench.sample_batch")].sum()
    coset = sel("bench.draw_coset")
    coset_forwards = np.zeros(len(ids))
    np.add.at(coset_forwards, a["parent"][sel("nn.mlp_forward", within="bench.draw_coset")], 1.0)
    retries = float(np.maximum(coset_forwards[coset] - 1.0, 0.0).sum())

    out = {
        "stochmap.streams_per_step": per(built, steps),
        "stochmap.stream_new_us": mean_us("stochmap.stream_new"),
        "stochmap.streams_unused_ratio": per(built - tracer.counts["streams_used"], built),
        "stochmap.streams_per_eval": per(built, evals),
        "stochmap.draw_us": mean_us("stochmap.draw"),
        "stochmap.enumerate_s": total_s("stochmap.enumerate"),
        "bench.sample_batch_us": mean_us("bench.sample_batch"),
        "bench.sample_batch_accept_ratio": per(kept, drawn_in_sample),
        "bench.haar_batch_us": mean_us("bench.haar_batch"),
        "bench.draw_coset_self_us": mean_us("bench.draw_coset", "self"),
        "bench.gs_retries": retries,
        "bench.objective_self_us": mean_us("bench.objective", "self"),
        "bench.train_self_us_per_step": per(a["self"][sel("bench.train")].sum() * 1e6, steps),
        "bench.draw_calls": count("bench.draw"),
        "bench.draw_rows_per_call": mean_work("bench.draw"),
        "bench.equivariance_gap_us": mean_us("bench.equivariance_gap"),
        "nn.mlp_forward_rows_per_call": mean_work("nn.mlp_forward"),
        "groups.haar_sample_calls": count("groups.haar_sample"),
        "groups.haar_sample_us": mean_us("groups.haar_sample"),
        "groups.element_distance_calls": count("groups.element_distance"),
        "groups.element_distance_us": mean_us("groups.element_distance"),
        "equivariance.coset_map_calls": count("equivariance.coset_map"),
        "equivariance.coset_map_us": mean_us("equivariance.coset_map"),
        "symcore.sampler_calls": count("symcore.sampler"),
        "symcore.sampler_us": mean_us("symcore.sampler"),
        "trace.spans_per_round": float(len(ids)),
    }
    for short in ("mlp_forward", "mlp_backward", "gs_forward", "gs_backward", "adam_step"):
        out[f"nn.{short}_us"] = mean_us(f"nn.{short}")
        out[f"nn.{short}_per_step"] = per(count(f"nn.{short}"), steps)
    for suite in SUITES:
        out[f"checks.suite_s.{suite}"] = total_s(f"checks.suite.{suite}")
    return out
