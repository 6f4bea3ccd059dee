"""The names the benchmark's tracer (bench/spans.py) reads off the package.

The tracer wraps the public functions of the layer modules by name and
observes a few of them; a rename or an inlined function in ``src`` makes it
report a stage as absent or a coefficient size as missing. These tests load
the benchmark's modules from their files and run its traced calls.
"""

from __future__ import annotations

# the tracer wraps functions in the loaded layer modules, so calls go through them
from pim import cli, modelfile, reduce

from oracles import load_bench


def test_tracer_finds_every_function_it_names():
    spans = load_bench("spans")
    functions = spans.Tracer().functions
    for name in (*spans.OBSERVERS, *spans.KEYS):
        assert name in functions, name


def test_tracer_observes_the_coefficient_sizes(repo_root):
    spans, gen = load_bench("spans"), load_bench("gen")
    texts = [made.text for made in gen.ladder(1, 1, False) + gen.ladder(1, 1, True)]
    path = repo_root / "models" / "drag.pim"
    tracer = spans.Tracer()
    tracer.install()
    try:
        for text in texts:
            modelfile.render_report(reduce.analyze(modelfile.parse_model(text)), "json")
        config = cli.CliConfig(command="analyze", input_path=str(path), format="json")
        assert cli.run(config, path.read_text(encoding="utf-8"))[0] == 0
    finally:
        tracer.uninstall()
    assert tracer.calls["cli.run"] == 1
    for name in ("model.E_max_bits", "reduce.C_max_bits", "reduce.rref_C_max_bits"):
        assert name in tracer.op_bits, name
