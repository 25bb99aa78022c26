"""The four workloads; each op is prepared, run (timed) and checked."""


class Workload:
    """prepare() makes an op's inputs, run(api, inputs) is the timed op and
    check(inputs, result) raises CheckFailed when the result is wrong."""

    launches = False  # True when the op starts a process: the reference is then a launch
    ops_per_round = 1

    def counts(self, inputs, result):
        """Per-op counts reported by the traced run."""
        return {}

    def traced_extras(self, api, inputs, result):
        """Extra traced calls made after a traced op, outside its timing."""

    def describe(self):
        """Measured input properties, printed beside the metrics."""
        return {}
