// Fork/join pipeline with no races at all: main initialises, workers run
// on disjoint array halves, main reads results only after joining.  The
// analyzer proves every pair non-MHP — a clean report — and the
// encoder's happens-before closure pins every read to the one write that
// fork/join orders before it.

int data[4];
int sum0 = 0;
int sum1 = 0;

void lo() {
    sum0 = data[0] + data[1];
}

void hi() {
    sum1 = data[2] + data[3];
}

int main() {
    for (int i = 0; i < 4; i++) {
        data[i] = i + 1;
    }
    int t0 = 0;
    int t1 = 0;
    t0 = spawn lo();
    t1 = spawn hi();
    join(t0);
    join(t1);
    assert(sum0 + sum1 == 10);
    return 0;
}
