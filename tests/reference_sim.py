"""Reference simulator: one sample, one step, one connection at a time.

A differential oracle for :mod:`emacprof.engine`, written from the model's
definition rather than from the engine's code:

* each neuron advances by the explicit-Euler equations of the
  :mod:`emacprof.neuron` docstring, on Python floats;
* each output neuron's connections are enumerated from its layer's kernel,
  stride and padding, and its weights are read from ``net.weights`` in their
  documented layout: dense-like ``(neurons, inputs)``, convolutions
  ``(C_out, C_in, kh, kw)``, both row-major;
* every synaptic event is counted as it happens, every recurrent spike books
  its fan-out when it is emitted, and every statically evaluated neuron
  counts the kernel taps it reads, padding included.

It imports nothing from the engine. It shares ``poisson_slice``, which
defines the input spikes, and the pricing of :mod:`emacprof.emac`, which
turns its counters into reports. With dyadic weights, biases and inputs
every synaptic sum is exact, so its voltages equal the engine's bit for bit
whatever order either adds in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from emacprof.codec import Decision, EncodingMode, poisson_slice
from emacprof.emac import EnergyReport, emac_analytic, emac_exact, rates_from_trace
from emacprof.netspec import Coding, LayerKind
from emacprof.neuron import NeuronKind


@dataclass
class Run:
    """What one simulated sample yields; it reads as a ``SpikeTrace`` too."""

    decision: Decision
    T_used: int
    counts: np.ndarray  # (layers, T_used): spikes each layer emitted per step
    input_counts: np.ndarray | None
    feedforward_events: np.ndarray
    recurrent_events: np.ndarray
    analog_events: np.ndarray
    output_voltages: np.ndarray  # (neurons, T_used): the pre-reset voltages
    layer_neurons: tuple[int, ...]
    n_inputs: int
    energy: EnergyReport | None = None
    energy_analytic: EnergyReport | None = None


def connections(net, layer) -> tuple[list[list[tuple[int, float | None]]], int]:
    """Each output neuron's ``(input, weight)`` pairs, and the taps it reads.

    Neurons and inputs are flat C-order indices. A tap on the zero padding
    reads no input and makes no pair, but it is still a tap.
    """
    n_out, n_in = prod(layer.output_shape), prod(layer.input_shape)
    if layer.kind in (LayerKind.DENSE, LayerKind.RECURRENT_DENSE):
        w = net.weights[layer.weights_ref].reshape(n_out, n_in)
        return [[(j, float(w[n, j])) for j in range(n_in)] for n in range(n_out)], n_in
    c_in, h, wd = layer.input_shape
    c_out, oh, ow = layer.output_shape
    (kh, kw), (sh, sw), p = layer.kernel, layer.stride, layer.padding
    pool = layer.kind is LayerKind.MAX_POOL2D
    if layer.kind is LayerKind.CONV2D:
        w = net.weights[layer.weights_ref].reshape(c_out, c_in, kh, kw)
    elif not pool:
        w = net.weights[layer.weights_ref].reshape(n_out, n_in)
    wiring = []
    for co in range(c_out):
        for oy in range(oh):
            for ox in range(ow):
                n = (co * oh + oy) * ow + ox
                pairs = []
                for ci in [co] if pool else range(c_in):  # a pool stays in its channel
                    for ky in range(kh):
                        for kx in range(kw):
                            y, x = oy * sh - p + ky, ox * sw - p + kx
                            if not (0 <= y < h and 0 <= x < wd):
                                continue
                            j = (ci * h + y) * wd + x
                            if pool:
                                weight = None
                            elif layer.kind is LayerKind.CONV2D:
                                weight = float(w[co, ci, ky, kx])
                            else:
                                weight = float(w[n, j])
                            pairs.append((j, weight))
                wiring.append(pairs)
    return wiring, kh * kw * (1 if pool else c_in)


def neuron_step(model, i, v, fired, drive):
    """One neuron, one step: ``(i, v, fired, v_half, spike)`` after it."""
    if model.kind is NeuronKind.LIF:
        i = i - i * (model.dt / model.tau_syn) + drive + model.bias
        v_half = v + (i - v) * (model.dt / model.tau_mem)
    else:
        i = i + drive + model.bias
        v_half = v + i
    spike = v_half >= model.v_th and not (model.spike_once and fired)
    return i, v_half - model.v_th * spike, fired or spike, v_half, spike


def simulate(net, encoded, *, t_max=None, coding=None, encoder_per_step=False) -> Run:
    coding = net.coding if coding is None else Coding(coding)
    T_max = net.max_timesteps if t_max is None else t_max
    layers, L = net.layers, len(net.layers)
    poisson = encoded.mode is EncodingMode.POISSON
    wiring = [([], 0) if l.kind is LayerKind.FLATTEN else connections(net, l) for l in layers]
    spiking = [l.neuron_model is not None and l.neuron_model.kind.spiking for l in layers]
    start = 0 if poisson else next((k for k in range(L) if spiking[k]), None)
    ff, rec, analog = [0] * L, [0] * L, [0] * L

    def weighted_sum(idx, x, pairs):  # a float input: every tap is a MAC
        analog[idx] += wiring[idx][1]
        return sum(w * x[j] for j, w in pairs)

    # the static stage: rectifier layers and the pools and flattens before
    # the first spiking layer, evaluated once on the analog input
    x = encoded.values.reshape(-1).tolist()
    for idx in range(L if start is None else start):
        layer = layers[idx]
        if layer.kind is LayerKind.MAX_POOL2D:
            x = [max(x[j] for j, _ in pairs) for pairs in wiring[idx][0]]
            analog[idx] += wiring[idx][1] * len(x)
        elif layer.kind is not LayerKind.FLATTEN:
            bias = layer.neuron_model.bias
            x = [max(weighted_sum(idx, x, pairs) + bias, 0.0) for pairs in wiring[idx][0]]
    if start is None:  # no spiking layer: one step, read off the head
        counts, volts, steps = [[0] * L], [x], range(0)
    else:
        counts, volts, steps = [], [], range(1, T_max + 1)
        if not poisson:  # the first spiking layer's drive is static too
            drive0 = [weighted_sum(start, x, pairs) for pairs in wiring[start][0]]

    neurons = [prod(l.output_shape) for l in layers]
    # per spiking layer: current, voltage and the fired flag of each neuron
    state = {k: ([0.0] * n, [0.0] * n, [False] * n)
             for k, n in enumerate(neurons) if spiking[k]}
    prev = {k: [False] * n for k, n in enumerate(neurons)
            if layers[k].kind is LayerKind.RECURRENT_DENSE}
    in_counts = []
    for t in steps:
        step_counts = [0] * L
        if poisson:
            cur = poisson_slice(encoded, t).reshape(-1).tolist()
            in_counts.append(sum(cur))
        for idx in range(start, L):
            layer = layers[idx]
            if layer.kind is LayerKind.FLATTEN:
                out = cur
            elif layer.kind is LayerKind.MAX_POOL2D:
                out = []
                for pairs in wiring[idx][0]:
                    hits = sum(cur[j] for j, _ in pairs)
                    ff[idx] += hits
                    out.append(hits > 0)
            else:
                if idx == start and not poisson:
                    drive = list(drive0)
                else:
                    drive = []
                    for pairs in wiring[idx][0]:
                        total = 0.0
                        for j, w in pairs:
                            if cur[j]:
                                total += w
                                ff[idx] += 1
                        drive.append(total)
                n_out = len(drive)
                if idx in prev:  # last step's own spikes, all to all
                    wr = net.weights[layer.recurrent_weights_ref].reshape(n_out, n_out)
                    for n in range(n_out):
                        drive[n] += sum(float(wr[n, j]) for j in range(n_out) if prev[idx][j])
                i, v, fired = state[idx]
                out, peaks = [], []
                for n in range(n_out):
                    i[n], v[n], fired[n], v_half, spike = neuron_step(
                        layer.neuron_model, i[n], v[n], fired[n], drive[n]
                    )
                    peaks.append(v_half)
                    out.append(spike)
                if idx in prev:
                    rec[idx] += n_out * sum(out)
                    prev[idx] = out
                if idx == L - 1:
                    volts.append(peaks)
            step_counts[idx] = sum(out)
            cur = out
        counts.append(step_counts)
        if coding is Coding.ROC and any(cur):
            break

    T = len(counts)
    roc = start is not None and coding is Coding.ROC
    if roc and any(cur):  # the first output spike ended the run
        decision = Decision(cur.index(True), T)
    else:  # the highest voltage peak; ties go to the lowest index
        peaks = [max(trace) for trace in zip(*volts)]
        decision = Decision(peaks.index(max(peaks)), T, fallback_used=roc)
    run = Run(
        decision=decision,
        T_used=T,
        counts=np.array(counts, dtype=np.int64).T.copy(),
        input_counts=np.array(in_counts, dtype=np.int64) if poisson else None,
        feedforward_events=np.array(ff, dtype=np.int64),
        recurrent_events=np.array(rec, dtype=np.int64),
        analog_events=np.array(analog, dtype=np.int64) * (T if encoder_per_step else 1),
        output_voltages=np.array(volts).T.copy(),
        layer_neurons=tuple(neurons),
        n_inputs=prod(net.input_shape),
    )
    run.energy = emac_exact(net, run)
    run.energy_analytic = emac_analytic(
        net, rates_from_trace(run), T, input_mode=encoded.mode,
        encoder_per_step=encoder_per_step,
    )
    return run
