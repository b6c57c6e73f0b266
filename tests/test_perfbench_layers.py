"""The benchmark's traced mode (perfbench/layers.py) wraps library functions
by name, so deleting or renaming one breaks `perfbench/run.py --trace 1`.
This installs the wrappers on the real library and undoes them."""

from pathlib import Path

from equisym import bench, checks, groups, nn, symcore

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_wraps_every_name_and_restore_undoes_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    from tracer import Tracer

    watched = [(bench, "train"), (bench, "_haar_batch"), (groups, "_haar_orthogonal"),
               (symcore, "haar_sample"), (nn, "mlp_forward"), (checks, "symmetrise"),
               (bench.InversionModel, "_draw_coset")]
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
