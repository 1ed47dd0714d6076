"""Host-speed sampling and the scaling to reference seconds."""

import time

from bench.hostspeed import Sampler, reference_seconds, trimmed_mean


def test_reference_seconds_take_out_sampling_and_scale_by_speed():
    # A host at half the reference speed.
    window = {"samples": 4, "sampled_s": 0.1, "speed": 0.5}
    assert reference_seconds(1.1, window) == 0.5


def test_speed_is_a_mean_over_time_without_outlying_samples():
    # Half the window at full speed, half at half speed: the work took
    # three quarters of the window on the reference host.  The outliers at
    # each end are trimmed.
    speeds = [0.01] + [1.0] * 9 + [0.5] * 9 + [9.0]
    assert trimmed_mean(speeds) == 0.75


def test_sampler_samples_only_while_running():
    sampler = Sampler(interval=0.01)
    sampler.start()
    mark = sampler.mark()
    end = time.perf_counter() + 0.3
    while time.perf_counter() < end:
        sum(range(1000))
    window = sampler.window(mark)
    sampler.stop()
    assert window["samples"] > 5
    assert 0 < window["sampled_s"] < 0.3 and window["speed"] > 0
    taken = len(sampler.speeds)
    time.sleep(0.05)
    assert len(sampler.speeds) == taken


def test_a_window_without_samples_measures_the_host_on_the_spot():
    sampler = Sampler()
    window = sampler.window(sampler.mark())
    assert window["samples"] == 0 and window["sampled_s"] == 0 and window["speed"] > 0
