"""The benchmark's traced mode (perfbench/layers.py) wraps library functions
by name, so deleting or renaming one breaks `perfbench/run.py --trace 1`.
This installs the wrappers on the real library and undoes them."""

from pathlib import Path

from equisym import bench, checks, equivariance, groups, nn, stochmap, symcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_every_name_and_restore_undoes_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    model = bench.InversionModel
    watched = [(bench, name) for name in ("train", "sample_batch", "_haar_batch",
                                          "equivariance_gap")]
    watched += [(model, name) for name in ("_draw_coset", "draw", "objective_and_grads")]
    watched += [(nn, name) for name in ("mlp_forward", "mlp_backward", "gram_schmidt_forward",
                                        "gram_schmidt_backward", "adam_step")]
    watched += [(stochmap.RandomStream, name) for name in (
        "__init__", "normal", "uniform", "integers", "permutation", "choice_index")]
    watched += [(groups, "_haar_orthogonal"), (groups, "haar_sample"), (symcore, "haar_sample"),
                (groups, "element_distance"), (checks, "element_distance"),
                (stochmap, "enumerate_distribution"), (checks, "enumerate_distribution"),
                (symcore, "symmetrise"), (checks, "symmetrise")]
    watched += [(module, name) for module in (equivariance, checks)
                for name in ("coset_bundle_trivial", "coset_bundle_orthogonal_in_gl",
                             "coset_bundle_semidirect")]
    before = [vars(owner).get(attr) for owner, attr in watched]  # a missing name fails in install
    suites = dict(checks.SUITES)

    tracer = Tracer()
    try:
        layers.install(tracer)
        assert all(vars(owner)[attr] is not fn
                   for (owner, attr), fn in zip(watched, before))
    finally:
        tracer.restore()
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert checks.SUITES == suites
