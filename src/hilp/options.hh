/**
 * @file
 * Engine options on the wire: one object with the engine fields and a
 * nested "solver" object with the solver fields. The writer, the
 * range-checked parser and the memo digest all walk the field tables
 * declared beside EngineOptions (hilp/engine.hh) and cp::SolverOptions
 * (cp/solver.hh), so a row added to a table needs no other change.
 */

#ifndef HILP_HILP_OPTIONS_HH
#define HILP_HILP_OPTIONS_HH

#include <cstdint>
#include <string>

#include "engine.hh"
#include "support/json.hh"

namespace hilp {

/** Every table field of the options, as one wire object. */
Json engineOptionsJson(const EngineOptions &options);

/**
 * Overlay the fields present in `json` onto *out; absent fields keep
 * their values and unknown keys are ignored. A present field must
 * have its JSON kind (an integer field takes only a JSON integer) and
 * lie in its range, checked before any narrowing; otherwise this
 * fails with *error naming the field.
 */
bool parseEngineOptions(const Json &json, EngineOptions *out,
                        std::string *error);

/**
 * Digest of every table field of the options (each row's name and
 * value, straight from the tables; no wire text is built). Evaluations
 * with equal digests may soundly share memo entries: evaluate() salts
 * every SolveMemo key with it. The digest lives only in memory, so its
 * value is not a stable format.
 */
uint64_t engineOptionsDigest(const EngineOptions &options);

} // namespace hilp

#endif // HILP_HILP_OPTIONS_HH
