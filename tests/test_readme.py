"""The README's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    # a renamed parameter or function would otherwise leave the documented
    # API silently broken
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    namespace = {"__name__": "readme"}
    exec(compile(code, str(README), "exec"), namespace)
    assert "worst anchor" in capsys.readouterr().out
    assert namespace["fresh"].shape == namespace["gated"].shape == (50_000, 2)
    assert namespace["plan"].reference_index in namespace["reference_probes"](50_000, 7)
