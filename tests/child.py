"""A child interpreter that imports geompair from this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import geompair


def run_child(*args, timeout=120, input=None, text=True, stdout=subprocess.PIPE):
    src = str(Path(geompair.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONUNBUFFERED", None)  # the standard streams buffered, as a program's are
    return subprocess.run([sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE,
                          input=input, text=text, timeout=timeout)
