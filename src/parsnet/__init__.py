"""parsnet: self-evolving weakly-supervised learning on data streams.

A single-pass stream classifier built from a tied-weight denoising
autoencoder that shares its encoder with a softmax head, a self-adjusting
Gaussian mixture tracking the input density, bias/variance-driven growth
and pruning of the hidden layer, and a confidence-gated self-labelling
policy whose anchored importance pull contains the damage of wrong pseudo
labels.  A prequential harness covers the sporadic-label and first-batch-
only label protocols.

The package root re-exports nothing: each name is imported from its own
module, such as ``parsnet.stream`` or ``parsnet.cli``, and ``import parsnet``
loads no submodule.
"""
