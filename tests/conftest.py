import hypothesis


hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=50, derandomize=True)
hypothesis.settings.load_profile("default")
