"""Connectivity clusters as the Plan records them (``Plan.clusters``)."""

from repro.core import ModuleSpec, RTModel
from repro.engine import lower


def lanes_model(lanes: int = 4) -> RTModel:
    """Independent adder lanes -- one connectivity cluster per lane."""
    model = RTModel(f"lanes{lanes}", cs_max=2 * lanes + 2)
    for lane in range(lanes):
        model.register(f"A{lane}", init=lane + 1)
        model.register(f"B{lane}", init=lane + 2)
        model.register(f"S{lane}")
        model.bus(f"BA{lane}")
        model.bus(f"BB{lane}")
        model.module(ModuleSpec(f"FU{lane}", latency=1))
        step = 2 * lane + 1
        model.add_transfer(
            f"(A{lane},BA{lane},B{lane},BB{lane},{step},FU{lane},"
            f"{step + 1},BA{lane},S{lane})"
        )
    return model


def fig1_model() -> RTModel:
    model = RTModel("example", cs_max=7)
    model.register("R1", init=2)
    model.register("R2", init=3)
    model.bus("B1")
    model.bus("B2")
    model.module(ModuleSpec("ADD", latency=1))
    model.add_transfer("(R1,B1,R2,B2,5,ADD,6,B1,R1)")
    return model


class TestConnectivityClusters:
    def test_fig1_is_one_cluster(self):
        assert lower(fig1_model()).clusters == (("ADD", "B1", "B2"),)

    def test_lanes_are_independent_clusters(self):
        clusters = lower(lanes_model(4)).clusters
        assert len(clusters) == 4
        assert ("BA0", "BB0", "FU0") in clusters

    def test_untouched_resources_form_singletons(self):
        model = fig1_model()
        model.bus("B_SPARE")
        assert ("B_SPARE",) in lower(model).clusters
