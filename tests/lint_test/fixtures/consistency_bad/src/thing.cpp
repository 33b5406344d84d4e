// Consistency-checker fixture (bad tree): one key never documented,
// one documented with the wrong kind.
void record_things(double seconds) {
  MECOFF_COUNTER_ADD("fx.bad.undocumented", 1);
  MECOFF_QUANTILES_RECORD_ID("fx.bad.wrongkind", seconds, 0);
}
