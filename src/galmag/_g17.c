/* Exact "%.17g" texts of float64 values, for galmag's CSV writer.
 *
 * A finite x with 1e-16 <= |x| < 2^128 is m * 2^e with integer m < 2^53.
 * Its 17 significant digits are x * 10^(16 - k) rounded half-even, where k
 * is the decade of x (10^k <= |x| < 10^(k+1)).  That product is formed
 * exactly in unsigned __int128 as an integer part t and a fraction rem/den,
 * so every digit and every tie is decided on the exact value, as Python's
 * correctly rounded '%.17g' % x decides it.  The decade is fixed from the
 * truncated t, not the rounded one: the double nearest 1e-16 lies below
 * 1e-16 and rounds up to 10^16 in the decade above it.
 *
 * Zero prints as "0" or "-0".  Any other value (subnormal, below 1e-16,
 * from 2^128 on, inf or nan) gets an empty text, and the caller formats it.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef unsigned __int128 u128;

#define TEN16 10000000000000000ULL
#define TEN17 100000000000000000ULL

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL,
};

static u128 five_to(int p) /* p <= 32 */
{
    return p < 28 ? (u128)POW5[p] : (u128)POW5[27] * POW5[p - 27];
}

static u128 ten_to(int d) /* d <= 23 */
{
    return five_to(d) << d;
}

static const char PAIRS[] = /* "00" to "99" */
    "00010203040506070809101112131415161718192021222324"
    "25262728293031323334353637383940414243444546474849"
    "50515253545556575859606162636465666768697071727374"
    "75767778798081828384858687888990919293949596979899";

static void eight_digits(char *o, uint32_t v) /* v < 10^8 */
{
    for (int i = 6; i >= 0; i -= 2) {
        memcpy(o + i, PAIRS + 2 * (v % 100), 2);
        v /= 100;
    }
}

/* Write the text of x at o and return its end, or NULL to leave x to the caller. */
static char *g17(double x, char *o)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    int biased = (int)(bits >> 52 & 0x7ff);
    uint64_t frac = bits & ((1ULL << 52) - 1);
    double a = x < 0 ? -x : x;
    if (!(a == 0 || (a >= 1e-16 && a < 0x1p128)))
        return NULL;
    if (bits >> 63)
        *o++ = '-';
    if (a == 0) {
        *o++ = '0';
        return o;
    }

    int E = biased - 1023; /* 2^E <= |x| < 2^(E+1), -54 <= E <= 127 */
    /* k is floor(E * log10(2)) + 1, the upper of the two decades |x| can be
       in (the bias keeps the shifted value non-negative; exact for |E| < 1100) */
    int k = ((E * 78913 + (64 << 18)) >> 18) - 64 + 1;
    /* x * 10^(16 - k) = t + rem/den exactly, den = 2^s or, for s < 0, a power of ten */
    uint64_t m = frac | 1ULL << 52, t;
    int p = 16 - k, s = -1;
    u128 rem, den;
    if (p >= 0) { /* m * 5^p < 2^128 for p <= 32, then a shift by p + E - 52 */
        u128 n = (u128)m * five_to(p);
        s = 52 - E - p;
        if (s <= 0) {
            t = (uint64_t)(n << -s);
            s = 0;
        } else {
            t = (uint64_t)(n >> s);
        }
        den = (u128)1 << s;
        rem = n & (den - 1);
    } else { /* here |x| >= 10^16, so E >= 54 and m * 2^(E - 52) < 2^128 */
        u128 n = (u128)m << (E - 52);
        den = ten_to(-p);
        t = (uint64_t)(n / den);
        rem = n % den;
    }
    if (t < TEN16) { /* x is in the decade below: scale the exact value by ten more */
        u128 r10 = rem * 10;
        k--;
        t = t * 10 + (uint64_t)(s >= 0 ? r10 >> s : r10 / den);
        rem = s >= 0 ? r10 & (den - 1) : r10 % den;
    }
    if (rem * 2 > den || (rem * 2 == den && (t & 1)))
        t++;
    if (t == TEN17) { /* 9.99...95 rounds up into the next decade */
        t = TEN16;
        k++;
    }

    char d[17];
    uint32_t hi = (uint32_t)(t / 100000000), lo = (uint32_t)(t % 100000000);
    d[0] = (char)('0' + hi / 100000000);
    eight_digits(d + 1, hi % 100000000);
    eight_digits(d + 9, lo);
    int nd = 17; /* %g drops trailing zeros */
    while (nd > 1 && d[nd - 1] == '0')
        nd--;

    if (k >= 17 || k < -4) { /* d.ddde+XX */
        *o++ = d[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, d + 1, nd - 1);
            o += nd - 1;
        }
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        int ak = k < 0 ? -k : k;
        *o++ = (char)('0' + ak / 10);
        *o++ = (char)('0' + ak % 10);
    } else if (k >= 0) { /* ddd.ddd */
        memcpy(o, d, k + 1);
        o += k + 1;
        if (nd > k + 1) {
            *o++ = '.';
            memcpy(o, d + k + 1, nd - k - 1);
            o += nd - k - 1;
        }
    } else { /* 0.000ddd */
        *o++ = '0';
        *o++ = '.';
        memset(o, '0', -k - 1);
        o += -k - 1;
        memcpy(o, d, nd);
        o += nd;
    }
    return o;
}

/* Write the texts of x[0..n) joined by '\n' into out, which holds 24 * n
 * bytes (a text is at most 23: sign, 17 digits, point and an exponent such
 * as "e-17"), and return the bytes written.  A value left to the caller
 * gets an empty text; *left counts them. */
size_t g17_format(const double *x, size_t n, char *out, size_t *left)
{
    char *o = out;
    size_t skipped = 0;
    for (size_t i = 0; i < n; i++) {
        if (i)
            *o++ = '\n';
        char *end = g17(x[i], o);
        if (end)
            o = end;
        else
            skipped++;
    }
    *left = skipped;
    return (size_t)(o - out);
}
