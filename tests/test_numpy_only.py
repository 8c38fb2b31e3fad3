"""The commands run on numpy alone: scipy is a test dependency, the
reference that the numpy PSD, convolution and log-sum-exp are checked
against, and no command imports it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# sys.modules["scipy"] = None makes every scipy import raise ImportError
CHILD = """
import json, sys
sys.modules["scipy"] = None
from combpolar.cli import main
codes = [main(args) for args in json.loads(sys.argv[1])]
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "scipy" and module is not None]
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_run_with_scipy_blocked(tmp_path):
    reference = json.loads((ROOT / "configs" / "reference.json").read_text())
    configs = {
        "construct": {},
        "fer": {"stop": {**reference["stop"], "max_frames": 64}, "snr_sweep_db": [0.0]},
        "psd": {"welch": {**reference["welch"], "frames": 8}},
        "mcsc": {"construction": {**reference["construction"], "trials": 5000}},
    }
    runs = []
    for command, override in configs.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps({**reference, **override}))
        flags = [["--threads", "1"], ["--threads", "2"]] if command == "fer" else [[]]
        for extra in flags:
            out = tmp_path / f"{command}{''.join(extra)}"
            runs.append([command, "--config", str(path), "--out", str(out), *extra])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)], cwd=tmp_path,
                           env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result == {"codes": [0] * len(runs), "scipy": []}, child.stderr
