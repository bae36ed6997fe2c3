"""Cleanup contract of tools/ab.py: worktrees deleted behind git's back (a
run killed mid-build or mid-cleanup, say) are still unregistered, so
`git worktree list` afterwards shows only the main tree. One tree's
directory is gone; one is half deleted (no .git file), which
`git worktree remove` refuses, so only the prune unregisters it; the
refused remove is reported.

Usage: python3 ab_cleanup_test.py <ab.py>
"""

import contextlib
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tempfile


def git(repo, *args):
    return subprocess.run(
        ["git", "-C", repo, "-c", "user.name=ab", "-c", "user.email=ab@test"]
        + list(args), check=True, capture_output=True, text=True).stdout


def main(ab_path):
    spec = importlib.util.spec_from_file_location("ab", ab_path)
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)

    root = tempfile.mkdtemp(prefix="ab_cleanup.")
    try:
        repo = os.path.join(root, "repo")
        scratch = os.path.join(root, "scratch")
        os.makedirs(scratch)
        git(root, "init", "-q", repo)
        git(repo, "commit", "-q", "--allow-empty", "-m", "root")
        gone = os.path.join(scratch, "parent")
        broken = os.path.join(scratch, "change")
        kept = os.path.join(scratch, "third")
        for tree in (gone, broken, kept):
            git(repo, "worktree", "add", "-q", "--detach", tree, "HEAD")
        shutil.rmtree(gone)  # registered, but its directory is gone
        os.remove(os.path.join(broken, ".git"))

        warnings = io.StringIO()
        with contextlib.redirect_stderr(warnings):
            ab.remove_worktrees(repo, [gone, broken, kept], scratch)

        listed = git(repo, "worktree", "list", "--porcelain")
        trees = [line for line in listed.splitlines()
                 if line.startswith("worktree ")]
        if trees != ["worktree " + os.path.realpath(repo)]:
            return "git worktree list shows more than the main tree: %s" % trees
        if os.path.exists(scratch):
            return "scratch directory %s was not deleted" % scratch
        if "worktree remove %s exited" % broken not in warnings.getvalue():
            return "the refused remove of %s was not reported: %r" % (
                broken, warnings.getvalue())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return None


if __name__ == "__main__":
    error = main(sys.argv[1])
    if error:
        sys.exit("ab_cleanup_test: " + error)
    print("ab_cleanup_test: ok")
