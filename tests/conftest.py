import os
import sys

from hypothesis import Phase, settings

# Allow running the tests from a checkout without installing the package.
_SRC = os.path.join(os.path.dirname(__file__), "..", "src")
if os.path.isdir(_SRC):
    sys.path.insert(0, os.path.abspath(_SRC))
sys.path.insert(0, os.path.dirname(__file__))

# One Hypothesis profile for every property test: no deadline (an example's
# time depends on what the process-wide memos already hold), and no explain
# phase, whose replays of a failing example had grown a run past 1 GB.  Each
# test sets only its own max_examples.
settings.register_profile(
    "treehopf", deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink))
settings.load_profile("treehopf")
