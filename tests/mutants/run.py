"""Run the named mutants: each must make its parity tests fail.

The engine serves only the numpy kernels, and the tests hold them to
the python references (``tests/conftest.py``'s reference executor and
oracles, ``repro.core.pbsm``'s tile sweep and distribute).  A mutant
is a small, deliberate fault in one kernel, kept as a patch in this
directory; the lines before its diff name what it breaks
(``Mutant:``) and the tests that must notice (``Kills:``, pytest node
ids, one a line).  A mutant no selected test fails on *survived*: the
oracle it was written against has gone blind to that fault.

For each patch the runner makes a fresh ``git worktree`` of ``--rev``
(default ``HEAD``) in a temporary directory, applies the patch there,
runs the patch's selection with ``pytest -x`` and prints ``killed``
with the first failing test, or ``SURVIVED``.  The union of the
selections first runs on a clean worktree, so a kill is the mutant's
doing.  The checkout it runs from is never modified, and its working
tree's uncommitted changes are not what is tested.

Usage, from the repository root::

    python tests/mutants/run.py [--rev REV] [--tmp DIR] [NAME ...]

Exit status 0 when every mutant run was killed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import os
import re
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))


def read_patch(path: str) -> Tuple[str, List[str]]:
    """A patch's ``Mutant:`` line and its ``Kills:`` node ids."""
    what, kills = "", []
    with open(path) as fh:
        for line in fh:
            if line.startswith("diff "):
                break
            if line.startswith("Mutant:"):
                what = line.split(":", 1)[1].strip().rstrip(".")
            elif line.startswith("Kills:"):
                kills.append(line.split(":", 1)[1].strip())
    if not kills:
        raise SystemExit(f"{path}: no 'Kills:' line")
    return what, kills


def git(repo: str, *args: str) -> str:
    return subprocess.run(["git", "-C", repo, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout


class Worktree:
    """A detached worktree of ``rev``, removed on exit."""

    def __init__(self, repo: str, rev: str, parent: str) -> None:
        self.repo, self.rev = repo, rev
        self.path = tempfile.mkdtemp(prefix="mutant-", dir=parent)

    def __enter__(self) -> str:
        git(self.repo, "worktree", "add", "--detach", "--quiet",
            self.path, self.rev)
        return self.path

    def __exit__(self, *exc) -> None:
        git(self.repo, "worktree", "remove", "--force", self.path)


def run_tests(tree: str, selection: List[str]) -> Tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("REPRO_KERNEL", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p",
         "no:cacheprovider", *selection],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    return proc.returncode, proc.stdout


def first_failure(output: str) -> Optional[str]:
    found = re.search(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE)
    return found.group(1) if found else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("names", nargs="*",
                        help="mutants to run (patch names without .patch; "
                             "default: all)")
    parser.add_argument("--rev", default="HEAD",
                        help="the commit to mutate (default HEAD)")
    parser.add_argument("--tmp", default=None,
                        help="where the worktrees go (default: the "
                             "system's temporary directory)")
    args = parser.parse_args(argv)
    repo = git(HERE, "rev-parse", "--show-toplevel").strip()
    patches = sorted(glob.glob(os.path.join(HERE, "*.patch")))
    if args.names:
        patches = [p for p in patches
                   if os.path.basename(p)[:-len(".patch")] in args.names]
    mutants = [(p, *read_patch(p)) for p in patches]
    parent = args.tmp or tempfile.gettempdir()

    selection = sorted({k for _, _, kills in mutants for k in kills})
    with Worktree(repo, args.rev, parent) as tree:
        code, output = run_tests(tree, selection)
    if code != 0:
        print(output)
        print(f"the clean tree at {args.rev} fails its selection: "
              "no mutant can be judged")
        return 1

    survivors = 0
    for path, what, kills in mutants:
        name = os.path.basename(path)[:-len(".patch")]
        with Worktree(repo, args.rev, parent) as tree:
            git(tree, "apply", path)
            code, output = run_tests(tree, kills)
        failed = first_failure(output)
        if code == 1 and failed:
            print(f"killed    {name}  by {failed}")
        else:
            survivors += 1
            print(f"SURVIVED  {name}  ({what}; pytest exit {code})")
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed "
          f"at {args.rev}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
