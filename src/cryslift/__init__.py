"""Exact-arithmetic toolkit for crystalline character lifts.

Submodules:

* errors     -- the package's two exception types
* units      -- symbolic units with exact rational exponents
* fields     -- multiplicative characters of finite fields as exponents
* transport  -- integer transportation with exact / modular sums
* lifting    -- field shapes and their embedding order, weights, lift certificates
* induction  -- determinant-of-induction oracle on finite groups
* ledger     -- symbolic determinant bookkeeping and twists
* certio     -- JSON wire format and schemas
* verify     -- independent certificate verifier
* sweep      -- grid sweep driver
* budget     -- the work budget that every command's work is held to
* cli        -- command-line entry point
"""
