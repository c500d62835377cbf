"""End-to-end benchmark of the SensorSafe reproduction.

Three workloads drive the public client API (``Consumer``, ``Contributor``,
``SmartphoneAgent``) against the shipped defaults of ``SensorSafeSystem``;
see ``perfbench/README.md`` for what each one measures and why.
"""
