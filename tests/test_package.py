import importlib

import subnyq

LAYERS = ("signals", "sampling", "patterns", "reconstruct", "blind", "sensing")


def test_package_exports_each_layer_all():
    # the package declares no name of its own: it is every layer's __all__
    # plus the layer modules, so a name added to a layer is exported at once
    modules = {name: importlib.import_module(f"subnyq.{name}") for name in LAYERS}
    union = set(LAYERS).union(*(m.__all__ for m in modules.values()))
    assert sorted(subnyq.__all__) == sorted(union)
    assert len(subnyq.__all__) == len(union)
    for name, module in modules.items():
        assert getattr(subnyq, name) is module
        for attr in module.__all__:
            assert getattr(subnyq, attr) is getattr(module, attr), f"{name}.{attr}"
