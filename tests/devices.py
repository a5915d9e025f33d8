"""The one way the tests build a device from plain data."""

import numpy as np

from sizecon.device import DeviceModel


def make_device(qubits, pairs=None):
    """A ``DeviceModel`` from one (readout_p10, readout_p01,
    single_qubit_error) triple per qubit and a dict from pair, in either
    order, to its two-qubit error, listed in the dict's order."""
    pairs = pairs or {}
    return DeviceModel(np.reshape(qubits, (-1, 3)), list(pairs), list(pairs.values()))
