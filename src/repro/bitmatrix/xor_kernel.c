/* Fused XOR kernel: one call runs a compiled plan over every stripe of a
 * grid or disk-order batch. repro.bitmatrix.kernel builds and loads it;
 * CompiledPlan.run_numpy is the executor it must match byte for byte.
 *
 * prog holds the plan's runs as [dest, head, nsrc, src...]:
 *   head >= 0, nsrc > 0   dest = head ^ src[0] ^ ... ^ src[nsrc-1]
 *   head >= 0, nsrc == 0  dest = head
 *   head < 0,  nsrc > 0   dest ^= src[0] ^ ... ^ src[nsrc-1]
 *   head < 0,  nsrc == 0  dest = 0
 * Rows are numbered inputs, then outputs, then workspace slots.
 *
 * table is [plen, nin, nout, nws, count, stride, width, tile] followed
 * by the byte offset in grid of each input and output row's stripe 0.
 * Stripe i of a row starts i * stride bytes past stripe 0 and is width
 * bytes long; each stripe runs in column tiles of tile bytes, so the
 * workspace is one tile per slot. Destinations never overlap their
 * sources. Returns 0, or -1 when the workspace cannot be allocated. */
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

static void xor3(uint8_t *restrict d, const uint8_t *restrict a,
                 const uint8_t *restrict b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        d[i] = a[i] ^ b[i];
}

static void xor4(uint8_t *restrict d, const uint8_t *restrict a,
                 const uint8_t *restrict b, const uint8_t *restrict c,
                 int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        d[i] = a[i] ^ b[i] ^ c[i];
}

static void xor_into(uint8_t *restrict d, const uint8_t *restrict a,
                     int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        d[i] ^= a[i];
}

static void xor_into2(uint8_t *restrict d, const uint8_t *restrict a,
                      const uint8_t *restrict b, int64_t n)
{
    for (int64_t i = 0; i < n; i++)
        d[i] ^= a[i] ^ b[i];
}

int xor_plan(const int32_t *prog, const int64_t *table, uint8_t *grid)
{
    int64_t plen = table[0], rows = table[1] + table[2], nws = table[3];
    int64_t count = table[4], stride = table[5], width = table[6];
    int64_t tile = table[7];
    const int64_t *offset = table + 8;
    uint8_t *row[rows + nws + 1];
    uint8_t *ws = NULL;
    if (nws > 0 && !(ws = malloc((size_t)(nws * tile))))
        return -1;
    for (int64_t k = 0; k < nws; k++)
        row[rows + k] = ws + k * tile;
    for (int64_t i = 0; i < count; i++) {
        for (int64_t t = 0; t < width; t += tile) {
            int64_t n = width - t < tile ? width - t : tile;
            for (int64_t k = 0; k < rows; k++)
                row[k] = grid + offset[k] + i * stride + t;
            for (int64_t p = 0; p < plen; p += 3 + prog[p + 2]) {
                uint8_t *d = row[prog[p]];
                int32_t head = prog[p + 1], nsrc = prog[p + 2], s = 0;
                const int32_t *src = prog + p + 3;
                if (head >= 0 && nsrc > 1) {
                    xor4(d, row[head], row[src[0]], row[src[1]], n);
                    s = 2;
                } else if (head >= 0 && nsrc > 0) {
                    xor3(d, row[head], row[src[0]], n);
                    s = 1;
                } else if (head >= 0) {
                    memcpy(d, row[head], (size_t)n);
                } else if (nsrc == 0) {
                    memset(d, 0, (size_t)n);
                }
                for (; s + 1 < nsrc; s += 2)
                    xor_into2(d, row[src[s]], row[src[s + 1]], n);
                if (s < nsrc)
                    xor_into(d, row[src[s]], n);
            }
        }
    }
    free(ws);
    return 0;
}
