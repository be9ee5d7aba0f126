"""Link-level simulator for a waveform-domain NOMA ISAC uplink.

OFDM downlink echoes and AFDM/OTFS uplink frames are superimposed at one
receiver that estimates the interference-plus-noise power on reserved guard
subcarriers, detects the uplink symbols with MMSE, cancels them, and
extracts delay-Doppler targets from the residual echo with 2D-OMP.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]
