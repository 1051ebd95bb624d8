"""Self-tests of the benchmark itself.

    python3 -m unittest discover -s marshalbench -p 'test_*.py'

Run from the repository root; the checker tests build `marshal` first.
"""

import hashlib
import os
import shutil
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import build  # noqa: E402
from harness import COSIM, LAUNCH, Run  # noqa: E402
from inputs import SPEC, EditLoopInputs  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_digest(root):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


class InputsTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="inputs-", dir=_work_dir())

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def generate(self, seed, name, edits=3):
        root = os.path.join(self.tmp, name)
        inputs = EditLoopInputs(seed)
        inputs.write(root)
        edited = [inputs.edit(root, i) for i in range(edits)]
        return tree_digest(root), edited

    def test_same_seed_gives_byte_identical_inputs(self):
        self.assertEqual(self.generate(7, "a"), self.generate(7, "b"))

    def test_seed_decides_the_inputs(self):
        self.assertNotEqual(self.generate(7, "a")[0], self.generate(8, "b")[0])

    def test_overlay_is_sized_as_specified(self):
        inputs = EditLoopInputs(3)
        self.assertTrue(224 <= len(inputs.files) <= 288)
        total = sum(size for _, size in inputs.files)
        self.assertLess(abs(total - (8 << 20)), 1 << 12)


class CheckerTest(unittest.TestCase):
    """Both injected faults must count as failed operations."""

    @classmethod
    def setUpClass(cls):
        cls.binary, _ = build(ROOT, False)
        cls.scratch = tempfile.mkdtemp(prefix="checker-", dir=_work_dir())
        cls.bench = Run("edit-loop", 5, cls.binary, cls.scratch)
        cls.bench.setup()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch)

    def account(self, result):
        before = self.bench.failed
        self.bench.account(result)
        return self.bench.failed - before

    def test_clean_launch_passes(self):
        self.assertEqual(self.account(self.bench.marshal.op(LAUNCH, SPEC)), 0, self.bench.problems)

    def test_injected_divergence_is_a_failure(self):
        result = self.bench.marshal.op(COSIM, SPEC, extra=["--inject-divergence"])
        self.assertNotEqual(result.code, 0)
        self.assertEqual(self.account(result), 1)

    def test_corrupted_output_is_a_failure(self):
        result = self.bench.marshal.op(LAUNCH, SPEC)
        output = os.path.join(self.bench.ref_workdir(), "runs", "edit-probe", "edit-probe",
                              "output", "probe.txt")
        with open(output, "r+b") as f:
            first = f.read(1)
            f.seek(0)
            f.write(bytes([first[0] ^ 1]))
        self.assertEqual(result.code, 0)
        self.assertEqual(self.account(result), 1)
        self.assertIn("digest", self.bench.problems[-1])


def _work_dir():
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


if __name__ == "__main__":
    unittest.main()
