"""The benchmark's tracer (``perfbench/tracing.py``) wraps epsim functions
under the names their callers look up, and its traced mode fails when one
is missing. Installing it here makes deleting or moving such a name fail
the tier-1 suite too."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_wraps_every_pinned_name_and_puts_it_back():
    tracing = load_tracing()
    sites = [(owner, attr) for _, owner, attr, _, _ in tracing._targets()]
    originals = [lookup(owner, attr) for owner, attr in sites]
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (owner, attr), original in zip(sites, originals):
            assert lookup(owner, attr) is not original, attr
    finally:
        uninstall()
    for (owner, attr), original in zip(sites, originals):
        assert lookup(owner, attr) is original, attr
