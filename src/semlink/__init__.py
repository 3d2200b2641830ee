"""Link-level simulator for semantic feature transmission over fading OFDM channels.

Modules are layered bottom-up: tensors and scenegen provide the synthetic
perception task, nnkit the dense-network machinery (and the one stable
sigmoid), codec the learned encoder/decoder, ofdm/channel/rxdsp/link the
physical layer (each receiver step is one channel or rxdsp function, which link
runs on the symbol rows it simulates), detector the learned acknowledgement
scorer (its rank corpus is sampled through harq.SemanticSource, imported
where the corpus is built, as harq imports detector), harq the retransmission
protocols, config the INI file, whose sections load straight into the config
dataclasses of ofdm, scenegen, codec and detector, and harness the experiment
orchestration.
"""

__version__ = "0.1.0"
