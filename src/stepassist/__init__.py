"""Proactive step assistance over egocentric sensor traces.

The package turns a recorded (or live) stream of paired camera frames and
gyroscope samples into timely, non-repetitive step guidance: motion-adaptive
sampling picks the moments worth looking at, block-matching optical flow
keeps only the ones where hands are actually doing something, a pluggable
reasoner names the current step and phase, and a consistency checker decides
what finally gets said. The harness replays recorded sessions, serves live
ones over TCP, and scores both with the same metric suite.
"""

__version__ = "0.1.0"
