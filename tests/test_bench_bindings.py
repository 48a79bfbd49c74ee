"""The benchmark's tracer (perfbench/tracer.py) wraps opmor's layer
functions by (module, attribute) name from outside the package. A rename
under src/ would leave the traced benchmark without its spans, so these
tests check that every name it binds to still resolves."""

import importlib
import importlib.util
from pathlib import Path

from opmor.config import build_model
from opmor.heat2d import FullModel
from opmor.models import PoleFactorModel

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    for mod_name, attr in tracer.LAYERS:
        obj = importlib.import_module(f"opmor.{mod_name}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"opmor.{mod_name}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"opmor.{mod_name}.{attr} is not callable"


def test_model_size_annotation_reads_full_model():
    tracer = load_tracer()
    model = build_model({
        "con_patch": {"x": [0.1, 0.3], "y": [0.1, 0.3]},
        "obs_patch": {"x": [0.6, 0.8], "y": [0.6, 0.8]},
        "n_modes": 3,
        "quad_order": 4,
    })
    sizes = tracer.ANNOTATE["config.build_model"](None, None, model)
    assert sizes["table_bytes"] > sizes["eval_bytes"] > 0


def test_full_model_inherits_the_traced_methods():
    # the tracer patches these on PoleFactorModel; an override on FullModel
    # would take every full-model evaluation past the patch, uncounted
    tracer = load_tracer()
    traced = [attr.split(".")[1] for _, attr in tracer.LAYERS
              if attr.startswith("PoleFactorModel.")]
    assert set(traced) == {"apply_tf", "apply_tf_adjoint", "apply_tf_derivative", "simulate"}
    assert not set(traced) & set(vars(FullModel))
    assert set(traced) <= set(vars(PoleFactorModel))
