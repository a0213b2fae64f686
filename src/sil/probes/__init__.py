"""Model-behavior probes: minimal pairs, attention analyses, regression.

Import each probe from its own module, so that loading one probe does
not load the others.
"""
