import os
import re
import subprocess
import sys
from pathlib import Path

import feedrank
from feedrank import config, states, synth
from feedrank.events import serialize_event_log
from feedrank.synth import GeneratorConfig, generate_stream

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in feedrank.__all__ if not hasattr(feedrank, name)]
    assert missing == []
    assert len(set(feedrank.__all__)) == len(feedrank.__all__)


def test_moved_names_keep_their_old_paths():
    assert synth.GeneratorConfig is config.GeneratorConfig
    assert states.BinSpec is config.BinSpec


def _python(code: str, **env: str) -> str:
    """What ``code`` prints in a fresh interpreter, with OPENBLAS_NUM_THREADS
    unset unless ``env`` sets it."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, "-c", code], env={**environ, **env},
                          capture_output=True, text=True, check=True, timeout=120).stdout


def test_import_loads_no_numpy():
    assert _python("import sys, feedrank; print('numpy' in sys.modules)") == "False\n"


def test_indices_step_loads_no_event_code():
    # The model and the sweep name ItemTable only in annotations.
    code = ("import sys, feedrank.cli, feedrank.model_io, feedrank.indices; "
            "print('feedrank.events' in sys.modules)")
    assert _python(code) == "False\n"


def test_cli_always_gives_numpy_one_blas_thread():
    code = "import os, feedrank.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(code) == "1\n"
    assert _python(code, OPENBLAS_NUM_THREADS="2") == "1\n"


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    # A small 30-day log: the example fits days 0-14 and evaluates days 15-29.
    batch = generate_stream(GeneratorConfig(seed=11, days=30, n_accounts=2, posts_per_day=8))
    with open(tmp_path / "month.jsonl", "w", encoding="utf-8") as fh:
        serialize_event_log(batch, fh)
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["index", "novelty", "popularity"]
