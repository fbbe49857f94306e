import hypothesis

# print_blob: a failure found only on CI prints the @reproduce_failure
# line that replays it, as Hypothesis's own CI profile would
hypothesis.settings.register_profile(
    "default", max_examples=60, deadline=None, print_blob=True
)
hypothesis.settings.load_profile("default")
