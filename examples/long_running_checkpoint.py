"""Checkpointing: reproduce a bug at the end of a long execution.

The paper's Section 6.4: "For very long runs ... we need to break up the
execution so that each execution segment has tractable size of
constraints.  Checkpointing is a common technique used in such contexts.
We plan to integrate CLAP with checkpointing in future."

This example implements that plan.  The program below does a long racy
warm-up (whose interleavings are irrelevant) and only races on the
interesting counter at the very end.  Without checkpointing, the
constraint system covers the entire execution; with periodic checkpoints,
only the suffix after the last snapshot needs symbolic execution,
encoding, and solving — the replayer then starts from the restored
snapshot instead of program entry.

Run:  python examples/long_running_checkpoint.py
"""

from repro.core.clap import ClapConfig, ClapPipeline
from repro.minilang import compile_source

SOURCE = """
int warmup = 0;
int c = 0;

void worker(int n) {
    for (int i = 0; i < n; i++) {
        int w = warmup;
        warmup = w + 1;       // long, racy, boring warm-up phase
    }
    int r = c;                // the bug: a lost update right at the end
    yield;
    c = r + 1;
}

int main() {
    int t1 = 0;
    int t2 = 0;
    t1 = spawn worker(40);
    t2 = spawn worker(40);
    join(t1);
    join(t2);
    assert(c == 2);
    return 0;
}
"""


def main():
    program = compile_source(SOURCE, name="long-run")
    pipeline = ClapPipeline(program, ClapConfig(stickiness=0.35))

    print("=== without checkpointing: the whole trace is the problem ===")
    full_system = pipeline.analyze(pipeline.record())
    print("  SAPs to solve over : %d" % len(full_system.saps))

    print("\n=== with checkpoints every 200 steps ===")
    recorded = pipeline.record(checkpoint_steps=200)
    print("  checkpoints taken  : %d" % recorded.n_checkpoints)
    report = pipeline.reproduce_offline(recorded)
    print("  SAPs in the suffix : %d" % report.n_saps)
    print(
        "  constraint reduction: %.0f%%"
        % (100.0 * (1 - report.n_saps / len(full_system.saps)))
    )
    assert report.schedule, report.failure_reason
    print("\n  suffix schedule reproduces the failure:", report.reproduced)
    print("  (replay started from the restored snapshot, not program entry)")


if __name__ == "__main__":
    main()
