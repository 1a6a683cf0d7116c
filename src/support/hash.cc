#include "hash.hh"

#include <cstring>

namespace hilp {

void
Hasher::bytes(const void *data, size_t size)
{
    constexpr uint64_t prime = 1099511628211ull;
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < size; ++i) {
        state_ ^= p[i];
        state_ *= prime;
    }
}

void
Hasher::u64(uint64_t value)
{
    bytes(&value, sizeof(value));
}

void
Hasher::f64(double value)
{
    if (value == 0.0)
        value = 0.0; // Collapse -0.0 onto +0.0.
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    u64(bits);
}

void
Hasher::str(std::string_view value)
{
    u64(value.size());
    bytes(value.data(), value.size());
}

} // namespace hilp
