include Shapes
