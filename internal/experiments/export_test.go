package experiments

// Cell returns the named row/column value (testing convenience).
func (r *Report) Cell(rowName, col string) (string, bool) {
	ci := -1
	for i, c := range r.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range r.Rows {
		if row.Name == rowName && ci < len(row.Cells) {
			return row.Cells[ci], true
		}
	}
	return "", false
}
