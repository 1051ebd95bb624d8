"""Seeded input generator for the `edit-loop` workload.

Everything the program sees of `edit-loop` comes from here: a user
workload directory (spec, host-init script, guest assembly, reference
output, post-run hook and a multi-MiB overlay) that `marshal` receives
through `-d`. The seed decides the overlay's file count, file sizes and
bytes, which file each iteration rewrites, and the new contents. The same
seed always gives byte-identical inputs.
"""

import os
import random

SPEC = "edit-probe.json"
# Sizing from the benchmark definition: ~256 files holding ~8 MiB in total.
TARGET_FILES = 256
TARGET_BYTES = 8 << 20

_GUEST = """
        .data
__msg:      .asciiz "edit-loop probe {token}\\n"
__out_path: .asciiz "/output/probe.txt"
__out_body: .ascii  "{token}\\n"
        .text
        .global _start
_start:
        la      a0, __msg
        mv      t0, a0
__len:
        lbu     t1, 0(t0)
        beqz    t1, __write
        addi    t0, t0, 1
        j       __len
__write:
        sub     a2, t0, a0
        mv      a1, a0
        li      a0, 1              # stdout
        li      a7, 64             # WRITE
        ecall
        la      a0, __out_path
        li      a1, 1              # O_WRONLY
        li      a7, 1024           # OPEN
        ecall
        mv      t0, a0
        la      a1, __out_body
        li      a2, 9
        li      a7, 64             # WRITE
        ecall
        mv      a0, t0
        li      a7, 57             # CLOSE
        ecall
        li      a0, 0
        li      a7, 93             # EXIT
        ecall
"""

_HOOK = """#!mscript
let rows = ["job,probe"]
for job in args() {
    rows = push(rows, csv_row([job, read_file(job + "/output/probe.txt")]))
}
write_file("probe.csv", join(rows, "\\n"))
print("edit-probe: wrote probe.csv")
"""


class EditLoopInputs:
    """The generated `edit-loop` workload for one seed."""

    def __init__(self, seed):
        rng = random.Random(f"edit-loop/{seed}")
        self.seed = seed
        self.token = f"{rng.getrandbits(32):08x}"
        count = rng.randint(TARGET_FILES * 7 // 8, TARGET_FILES * 9 // 8)
        weights = [rng.uniform(0.25, 1.75) for _ in range(count)]
        scale = TARGET_BYTES / sum(weights)
        self.files = [
            (f"data/d{i % 16:02d}/f{i:03d}.bin", max(1, int(w * scale)))
            for i, w in enumerate(weights)
        ]

    def write(self, root):
        """Writes the workload under `root` (created; must not exist yet)."""
        os.makedirs(root)
        files = {
            SPEC: (
                "{\n"
                '    "name": "edit-probe",\n'
                '    "base": "br-base.json",\n'
                '    "host-init": "build.ms",\n'
                '    "overlay": "overlay",\n'
                '    "command": "/bin/probe",\n'
                '    "outputs": ["/output"],\n'
                '    "post-run-hook": "collect.ms",\n'
                '    "testing": { "refDir": "refs" }\n'
                "}\n"
            ),
            "build.ms": '#!mscript\nassemble("src/probe.s", "overlay/bin/probe")\n',
            "collect.ms": _HOOK,
            "src/probe.s": _GUEST.format(token=self.token),
            "refs/uartlog": f"edit-loop probe {self.token}\n",
        }
        for rel, text in files.items():
            _write(os.path.join(root, rel), text.encode())
        rng = random.Random(f"edit-loop/{self.seed}/overlay")
        for rel, size in self.files:
            _write(os.path.join(root, "overlay", rel), rng.randbytes(size))

    def edit(self, root, iteration):
        """Rewrites the overlay file the seed picks for `iteration` with new
        bytes of the same size; returns its path relative to the overlay."""
        rng = random.Random(f"edit-loop/{self.seed}/edit/{iteration}")
        rel, size = self.files[rng.randrange(len(self.files))]
        _write(os.path.join(root, "overlay", rel), rng.randbytes(size))
        return rel


def _write(path, data):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "wb") as f:
        f.write(data)
