#include "options.hh"

#include <type_traits>
#include <variant>

#include "support/hash.hh"
#include "support/str.hh"

namespace hilp {

namespace {

/** Key of the nested solver object inside the engine options. */
constexpr char kSolverKey[] = "solver";

template <typename T>
Json
toWire(T value)
{
    if constexpr (std::is_same_v<T, bool>)
        return Json::boolean(value);
    else if constexpr (std::is_same_v<T, double>)
        return Json::number(value);
    else
        return Json::number(static_cast<int64_t>(value));
}

/**
 * Store `value` into *out when it has the field's JSON kind and lies
 * in the field's range; an integer is range-checked as int64 before
 * it is narrowed to the member's type.
 */
template <typename Options, typename T>
bool
fromWire(const Json &value, const OptionField<Options> &field, T *out)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (!value.isBool())
            return false;
        *out = value.boolValue();
    } else if constexpr (std::is_same_v<T, double>) {
        if (!value.isNumber() || !(value.numberValue() >= field.realMin &&
                                   value.numberValue() <= field.realMax))
            return false;
        *out = value.numberValue();
    } else {
        if (!value.isInteger() || value.intValue() < field.intMin ||
            value.intValue() > field.intMax)
            return false;
        *out = static_cast<T>(value.intValue());
    }
    return true;
}

template <typename Options, size_t N>
Json
fieldsJson(const Options &options,
           const OptionField<Options> (&fields)[N])
{
    Json json = Json::object();
    for (const OptionField<Options> &field : fields)
        std::visit([&](auto member) {
            json.set(field.name, toWire(options.*member));
        }, field.member);
    return json;
}

template <typename Options, size_t N>
bool
parseFields(const Json &json, const OptionField<Options> (&fields)[N],
            const char *what, Options *out, std::string *error)
{
    if (!json.isObject()) {
        if (error)
            *error = format("%s options must be an object", what);
        return false;
    }
    for (const OptionField<Options> &field : fields) {
        const Json *value = json.find(field.name);
        auto read = [&](auto member) {
            return fromWire(*value, field, &(out->*member));
        };
        if (value && !std::visit(read, field.member)) {
            if (error)
                *error = format("%s options out of range: %s", what,
                                field.name);
            return false;
        }
    }
    return true;
}

/**
 * Mix every table field of `options` into the hasher: its name, then
 * its value, a double through Hasher::f64 and any other type as a
 * u64.
 */
template <typename Options, size_t N>
void
digestFields(Hasher &hasher, const Options &options,
             const OptionField<Options> (&fields)[N])
{
    for (const OptionField<Options> &field : fields) {
        hasher.str(field.name);
        std::visit([&](auto member) {
            using T = std::remove_cvref_t<decltype(options.*member)>;
            if constexpr (std::is_same_v<T, double>)
                hasher.f64(options.*member);
            else
                hasher.u64(static_cast<uint64_t>(options.*member));
        }, field.member);
    }
}

} // anonymous namespace

Json
engineOptionsJson(const EngineOptions &options)
{
    Json json = fieldsJson(options, kEngineOptionFields);
    json.set(kSolverKey,
             fieldsJson(options.solver, cp::kSolverOptionFields));
    return json;
}

bool
parseEngineOptions(const Json &json, EngineOptions *out,
                   std::string *error)
{
    if (!parseFields(json, kEngineOptionFields, "engine", out, error))
        return false;
    const Json *solver = json.find(kSolverKey);
    return !solver ||
           parseFields(*solver, cp::kSolverOptionFields, kSolverKey,
                       &out->solver, error);
}

uint64_t
engineOptionsDigest(const EngineOptions &options)
{
    Hasher hasher;
    digestFields(hasher, options, kEngineOptionFields);
    hasher.str(kSolverKey);
    digestFields(hasher, options.solver, cp::kSolverOptionFields);
    return hasher.digest();
}

} // namespace hilp
